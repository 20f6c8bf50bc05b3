//! Welch-averaged spectra and the Goertzel single-bin detector.
//!
//! The paper's Fig. 5–7 measurements use single long records; [`welch`]
//! provides the variance-reduced alternative (segmented, overlapped,
//! averaged periodograms) for noise-floor work, and [`goertzel_power`]
//! evaluates one DFT bin in O(N) without an FFT — the cheap detector the
//! sweep harness uses when only the tone bin matters.

use crate::spectrum::Spectrum;
use crate::window::Window;
use crate::DspError;

/// Welch's method: split `signal` into `segments` half-overlapping pieces
/// (each a power of two), window each, and average the periodograms.
///
/// # Dropped tail
///
/// The segmentation covers exactly `(segments + 1) · seg_len / 2` samples,
/// where `seg_len` is the largest power of two for which that prefix fits;
/// any trailing samples beyond that are **dropped, never zero-padded**.
/// Because `seg_len` halves just below a power-of-two boundary, a signal
/// one sample short of such a boundary can lose up to half a window of
/// data — callers streaming chunks should use [`WelchAccumulator`], which
/// carries the tail across pushes instead of dropping it per call.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `segments` is zero or no
/// segment of at least two samples fits, plus periodogram errors.
pub fn welch(signal: &[f64], segments: usize, window: Window) -> Result<Spectrum, DspError> {
    let seg_len = welch_segment_len(signal.len(), segments).ok_or(DspError::InvalidParameter {
        name: "segments",
        constraint: "too many segments for the signal length",
    })?;
    // By construction (segments + 1)·seg_len/2 ≤ signal.len(), so the
    // covered prefix holds exactly `segments` segments; the tail past it
    // is dropped.
    let mut acc = WelchAccumulator::new(seg_len, window)?;
    acc.push(&signal[..(segments + 1) * seg_len / 2])?;
    acc.finish()
}

/// The power-of-two segment length [`welch`] uses to split `len` samples
/// into `segments` half-overlapping pieces, or `None` when `segments` is
/// zero or no segment of at least two samples fits.
///
/// With 50 % overlap, `segments` pieces of length `L` cover
/// `(segments + 1) · L / 2` samples; this picks the largest power-of-two
/// `L` that fits. Samples past the covered prefix are dropped by
/// [`welch`] — the drop is worst just below a power-of-two boundary,
/// where `L` halves.
#[must_use]
pub(crate) fn welch_segment_len(len: usize, segments: usize) -> Option<usize> {
    if segments == 0 {
        return None;
    }
    let max_len = 2 * len / (segments + 1);
    let seg_len = max_len.next_power_of_two() / 2;
    // `next_power_of_two` of an exact power returns it unchanged; halve
    // only when it overshot.
    let seg_len = if seg_len.max(1) > max_len {
        seg_len / 2
    } else if max_len.is_power_of_two() {
        max_len
    } else {
        seg_len
    };
    (seg_len >= 2).then_some(seg_len)
}

/// Streaming Welch estimator: feed samples in arbitrarily-sized chunks
/// and average half-overlapping windowed periodograms incrementally.
///
/// Unlike [`welch`], the segment length is fixed up front, so chunk
/// boundaries never change the segmentation: pushing a signal in any
/// split yields a [`finish`](Self::finish) spectrum bit-identical to
/// pushing it whole. The running state (carried tail, power sums,
/// segment count) is exposed for checkpointing via
/// [`tail`](Self::tail) / [`power_sum`](Self::power_sum) /
/// [`segments`](Self::segments) and restored with
/// [`resume`](Self::resume) — a resumed accumulator continues bit-for-bit.
///
/// # Dropped tail
///
/// Samples still buffered when [`finish`](Self::finish) is called (always
/// fewer than `seg_len`) are dropped, mirroring the explicit tail drop of
/// [`welch`]; [`pending`](Self::pending) reports how many.
#[derive(Debug, Clone, PartialEq)]
pub struct WelchAccumulator {
    seg_len: usize,
    window: Window,
    /// Unconsumed samples: the last `seg_len - hop` of every completed
    /// segment (the overlap) plus whatever has not yet filled a segment.
    tail: Vec<f64>,
    /// Per-bin running sums of the segment periodograms.
    sum: Vec<f64>,
    segments: usize,
}

impl WelchAccumulator {
    /// Creates an accumulator with a fixed segment length (a power of two,
    /// at least 2) and window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a segment length that is
    /// not a power of two or is below 2.
    pub fn new(seg_len: usize, window: Window) -> Result<Self, DspError> {
        if seg_len < 2 || !seg_len.is_power_of_two() {
            return Err(DspError::InvalidParameter {
                name: "seg_len",
                constraint: "segment length must be a power of two, at least 2",
            });
        }
        Ok(WelchAccumulator {
            seg_len,
            window,
            tail: Vec::new(),
            sum: vec![0.0; seg_len / 2 + 1],
            segments: 0,
        })
    }

    /// Rebuilds an accumulator from checkpointed state, continuing exactly
    /// where [`tail`](Self::tail) / [`power_sum`](Self::power_sum) /
    /// [`segments`](Self::segments) left off.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for an invalid `seg_len`, a
    /// tail long enough to already contain a segment, or a power-sum
    /// vector of the wrong length.
    pub fn resume(
        seg_len: usize,
        window: Window,
        tail: Vec<f64>,
        sum: Vec<f64>,
        segments: usize,
    ) -> Result<Self, DspError> {
        let fresh = Self::new(seg_len, window)?;
        if tail.len() >= seg_len {
            return Err(DspError::InvalidParameter {
                name: "tail",
                constraint: "checkpointed tail must be shorter than one segment",
            });
        }
        if sum.len() != fresh.sum.len() {
            return Err(DspError::InvalidParameter {
                name: "sum",
                constraint: "power sum must have seg_len/2 + 1 bins",
            });
        }
        Ok(WelchAccumulator {
            seg_len,
            window,
            tail,
            sum,
            segments,
        })
    }

    /// Appends samples, consuming every complete half-overlapping segment
    /// they unlock.
    ///
    /// # Errors
    ///
    /// Propagates periodogram errors.
    pub fn push(&mut self, samples: &[f64]) -> Result<(), DspError> {
        self.tail.extend_from_slice(samples);
        let hop = self.seg_len / 2;
        while self.tail.len() >= self.seg_len {
            let spec = Spectrum::periodogram(&self.tail[..self.seg_len], self.window)?;
            for (a, p) in self.sum.iter_mut().zip(spec.powers()) {
                *a += p;
            }
            self.segments += 1;
            self.tail.drain(..hop);
        }
        Ok(())
    }

    /// The fixed segment length.
    #[must_use]
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// The window applied to every segment.
    #[must_use]
    pub fn window(&self) -> Window {
        self.window
    }

    /// Number of complete segments consumed so far.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Buffered samples not yet part of a complete segment — dropped if
    /// [`finish`](Self::finish) is called now.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.tail.len()
    }

    /// The carried tail buffer, for checkpointing.
    #[must_use]
    pub fn tail(&self) -> &[f64] {
        &self.tail
    }

    /// The per-bin running power sums, for checkpointing.
    #[must_use]
    pub fn power_sum(&self) -> &[f64] {
        &self.sum
    }

    /// The Bartlett-averaged spectrum of every complete segment so far,
    /// bit-identical to [`welch`] over the same segment sequence. Any
    /// [`pending`](Self::pending) tail is dropped (documented above).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if no complete segment has been
    /// consumed yet.
    pub fn finish(&self) -> Result<Spectrum, DspError> {
        if self.segments == 0 {
            return Err(DspError::EmptyInput);
        }
        let k = self.segments as f64;
        let power: Vec<f64> = self.sum.iter().map(|a| a / k).collect();
        Ok(Spectrum::from_averaged_parts(
            power,
            self.seg_len,
            self.window,
        ))
    }
}

/// Goertzel algorithm: the power of DFT bin `k` of an `n`-point transform
/// of `signal` (which must have at least `n` samples; extra samples are
/// ignored). Normalized like [`Spectrum::periodogram`] with a rectangular
/// window: a coherent unit sine at bin `k` yields `0.5`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] for `n == 0`, `n > signal.len()`
/// or `k > n/2`.
pub fn goertzel_power(signal: &[f64], n: usize, k: usize) -> Result<f64, DspError> {
    if n == 0 || n > signal.len() {
        return Err(DspError::InvalidParameter {
            name: "n",
            constraint: "transform length must be in 1..=signal.len()",
        });
    }
    if k > n / 2 {
        return Err(DspError::InvalidParameter {
            name: "k",
            constraint: "bin must not exceed nyquist (n/2)",
        });
    }
    let omega = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let coeff = 2.0 * omega.cos();
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &x in &signal[..n] {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    let power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
    // |X[k]|² = power; single-sided normalization as in Spectrum.
    let two_sided = power / (n as f64 * n as f64);
    let scale = if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
        1.0
    } else {
        2.0
    };
    Ok(two_sided * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{GaussianNoise, SineWave};

    #[test]
    fn welch_validates() {
        let s = vec![0.0; 64];
        assert!(welch(&s, 0, Window::Hann).is_err());
        assert!(welch(&s, 1000, Window::Hann).is_err());
        assert!(welch(&s, 2, Window::Hann).is_ok());
    }

    #[test]
    fn segment_length_boundaries_are_explicit() {
        // Crossing a power-of-two boundary: one sample short halves the
        // segment, one sample past changes nothing.
        assert_eq!(welch_segment_len(255, 3), Some(64));
        assert_eq!(welch_segment_len(256, 3), Some(128));
        assert_eq!(welch_segment_len(257, 3), Some(128));
        // Shortest viable signal for two segments: (2+1)·2/2 = 3 samples.
        assert_eq!(welch_segment_len(3, 2), Some(2));
        assert_eq!(welch_segment_len(2, 2), None);
        // Degenerate inputs.
        assert_eq!(welch_segment_len(0, 1), None);
        assert_eq!(welch_segment_len(64, 0), None);
    }

    #[test]
    fn welch_off_by_one_lengths_use_documented_segment_length() {
        let noise: Vec<f64> = GaussianNoise::new(1.0, 11).take(257).collect();
        for (len, want_fft) in [(255usize, 64usize), (256, 128), (257, 128)] {
            let spec = welch(&noise[..len], 3, Window::Hann).unwrap();
            assert_eq!(spec.fft_len(), want_fft, "len {len}");
        }
    }

    #[test]
    fn welch_drops_exactly_the_tail_past_the_covered_prefix() {
        // 257 samples, 3 segments: seg_len 128, hop 64 — segments start at
        // 0, 64, 128 and cover samples 0..256; sample 256 is dropped.
        let noise: Vec<f64> = GaussianNoise::new(1.0, 13).take(257).collect();
        let spec = welch(&noise, 3, Window::Hann).unwrap();
        let manual = Spectrum::average(&[
            Spectrum::periodogram(&noise[0..128], Window::Hann).unwrap(),
            Spectrum::periodogram(&noise[64..192], Window::Hann).unwrap(),
            Spectrum::periodogram(&noise[128..256], Window::Hann).unwrap(),
        ])
        .unwrap();
        assert_eq!(spec, manual);
    }

    #[test]
    fn accumulator_validates() {
        assert!(WelchAccumulator::new(0, Window::Hann).is_err());
        assert!(WelchAccumulator::new(1, Window::Hann).is_err());
        assert!(WelchAccumulator::new(96, Window::Hann).is_err());
        let acc = WelchAccumulator::new(64, Window::Hann).unwrap();
        assert!(acc.finish().is_err(), "no segments yet");
        assert!(
            WelchAccumulator::resume(64, Window::Hann, vec![0.0; 64], vec![0.0; 33], 1).is_err()
        );
        assert!(
            WelchAccumulator::resume(64, Window::Hann, vec![0.0; 10], vec![0.0; 7], 1).is_err()
        );
        assert!(
            WelchAccumulator::resume(64, Window::Hann, vec![0.0; 10], vec![0.0; 33], 1).is_ok()
        );
    }

    #[test]
    fn accumulator_matches_batch_welch_bit_for_bit() {
        let n = 1 << 12;
        let noise: Vec<f64> = GaussianNoise::new(1.0, 21).take(n).collect();
        let segments = 7;
        let seg_len = welch_segment_len(n, segments).unwrap();
        let batch = welch(&noise, segments, Window::Hann).unwrap();
        // Feed only the covered prefix so both sides see the same segment
        // sequence, in uneven chunks to exercise the tail carry.
        let covered = (segments + 1) * seg_len / 2;
        let mut acc = WelchAccumulator::new(seg_len, Window::Hann).unwrap();
        for chunk in noise[..covered].chunks(97) {
            acc.push(chunk).unwrap();
        }
        assert_eq!(acc.segments(), segments);
        assert_eq!(acc.finish().unwrap(), batch);
    }

    #[test]
    fn accumulator_resume_is_bit_identical() {
        let n = 1 << 11;
        let noise: Vec<f64> = GaussianNoise::new(1.0, 33).take(n).collect();
        let mut whole = WelchAccumulator::new(256, Window::Blackman).unwrap();
        whole.push(&noise).unwrap();

        let mut first = WelchAccumulator::new(256, Window::Blackman).unwrap();
        first.push(&noise[..777]).unwrap();
        // Checkpoint, discard, restore, continue.
        let mut resumed = WelchAccumulator::resume(
            first.seg_len(),
            first.window(),
            first.tail().to_vec(),
            first.power_sum().to_vec(),
            first.segments(),
        )
        .unwrap();
        drop(first);
        resumed.push(&noise[777..]).unwrap();

        assert_eq!(resumed.segments(), whole.segments());
        assert_eq!(resumed.finish().unwrap(), whole.finish().unwrap());
    }

    #[test]
    fn accumulator_pending_tail_is_reported_and_dropped() {
        let mut acc = WelchAccumulator::new(64, Window::Hann).unwrap();
        let noise: Vec<f64> = GaussianNoise::new(1.0, 5).take(100).collect();
        acc.push(&noise).unwrap();
        // Two half-overlapping segments (0..64, 32..96) consumed; the
        // buffered tail is samples 64..100, dropped by finish.
        assert_eq!(acc.segments(), 2);
        assert_eq!(acc.pending(), 36);
        let got = acc.finish().unwrap();
        let manual = Spectrum::average(&[
            Spectrum::periodogram(&noise[0..64], Window::Hann).unwrap(),
            Spectrum::periodogram(&noise[32..96], Window::Hann).unwrap(),
        ])
        .unwrap();
        assert_eq!(got, manual);
    }

    #[test]
    fn welch_reduces_noise_floor_variance() {
        let n = 1 << 14;
        let noise: Vec<f64> = GaussianNoise::new(1.0, 5).take(n).collect();
        let single = Spectrum::periodogram(&noise, Window::Hann).unwrap();
        let averaged = welch(&noise, 15, Window::Hann).unwrap();
        let rel_var = |s: &Spectrum| {
            let p = &s.powers()[1..s.len() - 1];
            let m = p.iter().sum::<f64>() / p.len() as f64;
            p.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / p.len() as f64 / (m * m)
        };
        let (v1, v2) = (rel_var(&single), rel_var(&averaged));
        assert!(
            v2 < v1 / 3.0,
            "welch variance {v2} not much below single-record {v1}"
        );
    }

    #[test]
    fn welch_total_noise_power_is_calibrated() {
        let n = 1 << 14;
        let sigma = 0.05;
        let noise: Vec<f64> = GaussianNoise::new(sigma, 9).take(n).collect();
        let spec = welch(&noise, 7, Window::Blackman).unwrap();
        let total = spec.band_power_excluding(1.0, 0.0, 0.5, &[]);
        assert!(
            (total - sigma * sigma).abs() / (sigma * sigma) < 0.15,
            "total {total} vs σ² {}",
            sigma * sigma
        );
    }

    #[test]
    fn goertzel_matches_fft_bin() {
        let n = 1024;
        let amp = 0.8;
        let samples: Vec<f64> = SineWave::coherent(amp, 37, n).unwrap().take(n).collect();
        let p = goertzel_power(&samples, n, 37).unwrap();
        assert!((p - amp * amp / 2.0).abs() < 1e-9, "goertzel {p}");
        // Compare against the full periodogram.
        let spec = Spectrum::periodogram(&samples, Window::Rectangular).unwrap();
        assert!((p - spec.power(37).unwrap()).abs() < 1e-12);
        // An empty bin reads ~0.
        let off = goertzel_power(&samples, n, 100).unwrap();
        assert!(off < 1e-12);
    }

    #[test]
    fn goertzel_dc_and_nyquist_normalization() {
        let n = 256;
        let dc = vec![0.3; n];
        assert!((goertzel_power(&dc, n, 0).unwrap() - 0.09).abs() < 1e-12);
        let nyq: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((goertzel_power(&nyq, n, n / 2).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn goertzel_validates() {
        let s = vec![0.0; 16];
        assert!(goertzel_power(&s, 0, 0).is_err());
        assert!(goertzel_power(&s, 32, 0).is_err());
        assert!(goertzel_power(&s, 16, 9).is_err());
    }
}
