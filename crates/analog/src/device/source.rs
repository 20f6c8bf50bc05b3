//! Independent sources and their time-domain waveforms.

use crate::units::Seconds;

/// A source waveform evaluated at simulation time.
///
/// The value's unit depends on the owning element (volts for voltage
/// sources, amperes for current sources).
///
/// ```
/// use si_analog::device::Waveform;
/// use si_analog::units::Seconds;
///
/// let w = Waveform::Sine { offset: 0.0, amplitude: 1.0, frequency: 1e3, phase: 0.0 };
/// assert!(w.value_at(Seconds(0.0)).abs() < 1e-15);
/// assert!((w.value_at(Seconds(0.25e-3)) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Waveform {
    /// A constant value.
    Dc(f64),
    /// `offset + amplitude·sin(2πf·t + phase)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        frequency: f64,
        /// Phase in radians.
        phase: f64,
    },
    /// A periodic two-level pulse.
    Pulse {
        /// Value during the first part of the period.
        low: f64,
        /// Value during the second part of the period.
        high: f64,
        /// Period in seconds.
        period: f64,
        /// Fraction of the period spent at `low`, in `(0, 1)`.
        duty_low: f64,
    },
    /// Piecewise-linear interpolation through `(time, value)` points,
    /// clamped at the ends. Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Evaluates the waveform at time `t`.
    #[must_use]
    pub fn value_at(&self, t: Seconds) -> f64 {
        let t = t.0;
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                phase,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * frequency * t + phase).sin(),
            Waveform::Pulse {
                low,
                high,
                period,
                duty_low,
            } => {
                let frac = (t / period).rem_euclid(1.0);
                if frac < *duty_low {
                    *low
                } else {
                    *high
                }
            }
            Waveform::Pwl(points) => match points.len() {
                0 => 0.0,
                1 => points[0].1,
                _ => {
                    if t <= points[0].0 {
                        return points[0].1;
                    }
                    if t >= points[points.len() - 1].0 {
                        return points[points.len() - 1].1;
                    }
                    let idx = points.partition_point(|&(pt, _)| pt <= t);
                    let (t0, v0) = points[idx - 1];
                    let (t1, v1) = points[idx];
                    if t1 == t0 {
                        v1
                    } else {
                        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                    }
                }
            },
        }
    }

    /// The DC (t = 0⁻) value used by operating-point analysis.
    #[must_use]
    pub(crate) fn dc_value(&self) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine { offset, .. } => *offset,
            Waveform::Pulse { low, .. } => *low,
            Waveform::Pwl(points) => points.first().map_or(0.0, |&(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(3.3);
        assert_eq!(w.value_at(Seconds(0.0)), 3.3);
        assert_eq!(w.value_at(Seconds(1.0)), 3.3);
        assert_eq!(w.dc_value(), 3.3);
    }

    #[test]
    fn sine_has_offset_and_period() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 0.5,
            frequency: 1e6,
            phase: 0.0,
        };
        assert!((w.value_at(Seconds(0.0)) - 1.0).abs() < 1e-12);
        assert!((w.value_at(Seconds(0.25e-6)) - 1.5).abs() < 1e-9);
        assert!((w.value_at(Seconds(1e-6)) - 1.0).abs() < 1e-9);
        assert_eq!(w.dc_value(), 1.0);
    }

    #[test]
    fn pulse_alternates() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 3.3,
            period: 1e-6,
            duty_low: 0.5,
        };
        assert_eq!(w.value_at(Seconds(0.1e-6)), 0.0);
        assert_eq!(w.value_at(Seconds(0.6e-6)), 3.3);
        assert_eq!(w.value_at(Seconds(1.1e-6)), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value_at(Seconds(-1.0)), 0.0);
        assert!((w.value_at(Seconds(0.5)) - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(Seconds(1.5)), 2.0);
        assert_eq!(w.value_at(Seconds(5.0)), 2.0);
    }

    #[test]
    fn degenerate_pwl() {
        assert_eq!(Waveform::Pwl(vec![]).value_at(Seconds(1.0)), 0.0);
        assert_eq!(Waveform::Pwl(vec![(0.0, 7.0)]).value_at(Seconds(9.0)), 7.0);
    }
}
