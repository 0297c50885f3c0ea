//! Memory-mapped watchdog timer.
//!
//! The in-field safety net behind the campaign's *hang* verdicts: when a
//! fault stalls a core forever, nothing inside the core can flag it —
//! the watchdog bites and the safety supervisor records a detection.
//! The boot-test scheduler kicks it between routines.
//!
//! Register map (word offsets from [`MMIO_BASE`](crate::MMIO_BASE)):
//!
//! | offset | read | write |
//! |---|---|---|
//! | `0x0` `LOAD` | programmed timeout | set timeout, enable, reload |
//! | `0x4` `KICK` | remaining cycles | reload the counter |
//! | `0x8` `STATUS` | bit 0 = bitten | write 1 to clear (and reload) |

/// Register offset: timeout load / enable.
pub const WDG_LOAD: u32 = 0x0;
/// Register offset: kick (reload) / remaining.
pub const WDG_KICK: u32 = 0x4;
/// Register offset: status (bit 0 = bitten), write-1-to-clear.
pub const WDG_STATUS: u32 = 0x8;

/// The watchdog timer peripheral (a bus slave; see [`Bus`](crate::Bus)).
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    timeout: u32,
    remaining: u32,
    enabled: bool,
    bitten: bool,
}

impl Watchdog {
    /// A disabled watchdog.
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// Advances one cycle; at zero the watchdog bites (latched).
    pub fn tick(&mut self) {
        if !self.enabled || self.bitten {
            return;
        }
        if self.remaining == 0 {
            self.bitten = true;
        } else {
            self.remaining -= 1;
        }
    }

    /// Whether the watchdog has bitten since the last clear.
    pub fn bitten(&self) -> bool {
        self.bitten
    }

    /// Whether the watchdog is armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Configuration equality: programmed timeout and enable only. The
    /// countdown (`remaining`) and the latched alarm are deliberately
    /// excluded — they advance monotonically every cycle, and the
    /// campaign's loop proof compares machine states modulo
    /// free-running timers (it separately verifies the spinning code
    /// never reads a watchdog register, so the excluded fields cannot
    /// influence the trajectory; an earlier-than-budget bite only
    /// reinforces the hang verdict).
    pub fn config_eq(&self, other: &Watchdog) -> bool {
        self.timeout == other.timeout && self.enabled == other.enabled
    }

    /// Bus read at register offset `off`.
    pub fn read(&self, off: u32) -> u32 {
        match off {
            WDG_LOAD => self.timeout,
            WDG_KICK => self.remaining,
            WDG_STATUS => u32::from(self.bitten),
            _ => 0,
        }
    }

    /// Bus write at register offset `off`.
    pub fn write(&mut self, off: u32, value: u32) {
        match off {
            WDG_LOAD => {
                self.timeout = value;
                self.remaining = value;
                self.enabled = value != 0;
            }
            WDG_KICK => self.remaining = self.timeout,
            WDG_STATUS
                if value & 1 != 0 => {
                    // Clearing the alarm also restarts the countdown —
                    // otherwise the zero counter would re-bite on the
                    // next cycle.
                    self.bitten = false;
                    self.remaining = self.timeout;
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_watchdog_never_bites() {
        let mut w = Watchdog::new();
        for _ in 0..1000 {
            w.tick();
        }
        assert!(!w.bitten());
    }

    #[test]
    fn bites_after_timeout_and_latches() {
        let mut w = Watchdog::new();
        w.write(WDG_LOAD, 3);
        for _ in 0..3 {
            w.tick();
            assert!(!w.bitten());
        }
        w.tick();
        assert!(w.bitten());
        w.tick(); // stays latched, no counting
        assert!(w.bitten());
        w.write(WDG_STATUS, 1);
        assert!(!w.bitten(), "write-1-to-clear");
        w.tick();
        assert!(!w.bitten(), "clear also reloaded the countdown");
    }

    #[test]
    fn kicking_restarts_the_countdown() {
        let mut w = Watchdog::new();
        w.write(WDG_LOAD, 5);
        for _ in 0..100 {
            w.tick();
            w.tick();
            w.write(WDG_KICK, 0);
        }
        assert!(!w.bitten(), "regular kicks keep it quiet");
        assert_eq!(w.read(WDG_KICK), 5);
        assert_eq!(w.read(WDG_LOAD), 5);
    }
}
