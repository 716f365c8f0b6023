//! Electrical stimulation and wireless charging (§2.1, §3.6).
//!
//! Confirmed seizure propagation (or sensory feedback in the movement
//! loop) triggers electrical stimulation through the repurposed
//! electrodes after digital-to-analog conversion; the DAC draws ≈0.6 mW
//! while active. Charging is wireless and *exclusive*: "when charging
//! wirelessly, we pause all pipelines to avoid overheating", and recent
//! systems sustain 24-hour operation with 2 hours of charging.

use scalo_hw::adc::DAC_STIM_MW;
use serde::Serialize;

/// One stimulation command issued to a node's DAC.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StimCommand {
    /// Target electrode.
    pub electrode: usize,
    /// Pulse amplitude in µA (clinical range; validated).
    pub amplitude_ua: f64,
    /// Pulse train duration in ms.
    pub duration_ms: f64,
    /// Pulse frequency in Hz.
    pub frequency_hz: f64,
}

impl StimCommand {
    /// A standard responsive-neurostimulation burst (RNS-class
    /// parameters: 100 µA at 200 Hz for 100 ms).
    pub fn standard_burst(electrode: usize) -> Self {
        Self {
            electrode,
            amplitude_ua: 100.0,
            duration_ms: 100.0,
            frequency_hz: 200.0,
        }
    }

    /// Validates clinical safety bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if !(1.0..=1_000.0).contains(&self.amplitude_ua) {
            return Err(format!(
                "amplitude {} µA outside 1–1000 µA",
                self.amplitude_ua
            ));
        }
        if !(1.0..=5_000.0).contains(&self.duration_ms) {
            return Err(format!(
                "duration {} ms outside 1–5000 ms",
                self.duration_ms
            ));
        }
        if !(1.0..=500.0).contains(&self.frequency_hz) {
            return Err(format!(
                "frequency {} Hz outside 1–500 Hz",
                self.frequency_hz
            ));
        }
        Ok(())
    }

    /// Energy drawn from the implant budget by this burst, in µJ
    /// (DAC power × active time).
    pub fn energy_uj(&self) -> f64 {
        DAC_STIM_MW * self.duration_ms
    }
}

/// The per-node stimulation engine: validates, logs, and accounts power.
#[derive(Debug, Clone, Default)]
pub struct StimEngine {
    log: Vec<(u64, StimCommand)>,
    total_energy_uj: f64,
}

impl StimEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine that has issued `log` and drawn `total_energy_uj` (a
    /// restored node's).
    pub fn resume(log: Vec<(u64, StimCommand)>, total_energy_uj: f64) -> Self {
        Self {
            log,
            total_energy_uj,
        }
    }

    /// Issues a command at `now_us`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures without logging.
    pub fn stimulate(&mut self, now_us: u64, cmd: StimCommand) -> Result<(), String> {
        cmd.validate()?;
        self.total_energy_uj += cmd.energy_uj();
        self.log.push((now_us, cmd));
        Ok(())
    }

    /// Commands issued so far.
    pub fn log(&self) -> &[(u64, StimCommand)] {
        &self.log
    }

    /// Total stimulation energy drawn, µJ.
    pub fn total_energy_uj(&self) -> f64 {
        self.total_energy_uj
    }
}

/// The wireless-charging duty cycle (§3.6): 24-hour operation with
/// 2 hours of charging, pipelines paused while charging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChargingSchedule {
    /// Operating hours per cycle.
    pub operate_h: f64,
    /// Charging hours per cycle.
    pub charge_h: f64,
}

impl ChargingSchedule {
    /// The §3.6 reference point: 24 h of operation per 2 h charge.
    pub fn paper_reference() -> Self {
        Self {
            operate_h: 24.0,
            charge_h: 2.0,
        }
    }

    /// Fraction of wall-clock time the system is available.
    pub fn availability(&self) -> f64 {
        self.operate_h / (self.operate_h + self.charge_h)
    }

    /// Energy a cycle must deliver for `power_mw` of average draw, in J.
    pub fn energy_per_cycle_j(&self, power_mw: f64) -> f64 {
        power_mw / 1_000.0 * self.operate_h * 3_600.0
    }

    /// Required charging power in mW (ideal transfer).
    pub fn charge_power_mw(&self, power_mw: f64) -> f64 {
        self.energy_per_cycle_j(power_mw) / (self.charge_h * 3_600.0) * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_burst_is_valid_and_costed() {
        let cmd = StimCommand::standard_burst(3);
        assert!(cmd.validate().is_ok());
        assert!((cmd.energy_uj() - 60.0).abs() < 1e-9); // 0.6 mW × 100 ms
    }

    #[test]
    fn out_of_range_commands_rejected() {
        let mut engine = StimEngine::new();
        let mut cmd = StimCommand::standard_burst(0);
        cmd.amplitude_ua = 5_000.0;
        assert!(engine.stimulate(0, cmd).is_err());
        assert!(engine.log().is_empty());
    }

    #[test]
    fn engine_accumulates_energy() {
        let mut engine = StimEngine::new();
        engine
            .stimulate(1_000, StimCommand::standard_burst(0))
            .unwrap();
        engine
            .stimulate(5_000, StimCommand::standard_burst(1))
            .unwrap();
        assert_eq!(engine.log().len(), 2);
        assert!((engine.total_energy_uj() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn paper_charging_cycle() {
        let c = ChargingSchedule::paper_reference();
        assert!((c.availability() - 24.0 / 26.0).abs() < 1e-12);
        // A 15 mW implant needs 1296 J per day ⇒ 180 mW of charge power.
        assert!((c.energy_per_cycle_j(15.0) - 1_296.0).abs() < 1e-9);
        assert!((c.charge_power_mw(15.0) - 180.0).abs() < 1e-9);
    }
}
