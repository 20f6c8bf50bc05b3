//! The JSON number writer: the shortest decimal digits that read back as
//! the same `f64`, laid out exactly as Rust's `{}` lays them out.
//!
//! The digits come from a port of Ryū (Ulf Adams, "Ryū: Fast
//! Float-to-String Conversion", PLDI 2018), `d2d` with its 125-bit
//! `POW5_SPLIT`/`POW5_INV_SPLIT` tables, with one change: when the exact
//! value lies midway between two shortest candidates, `{}` takes the
//! larger, so the reference's round-half-even line is gone. `1 + 2⁻¹⁷`
//! prints as `1.0000076293945313`. The tables are built once on first
//! use from a small bignum; the layout never uses an exponent.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Only the entries `d2d` indexes: `POW5_SPLIT` up to 325 (the lowest
/// subnormal) and `POW5_INV_SPLIT` up to 290 (the largest exponent).
/// The reference's tables run to 325 and 341.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 291;
const _: () = assert!(POW5_INV_TABLE_SIZE <= POW5_TABLE_SIZE);

/// `"00"`, `"01"`, …, `"99"`: two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// `POW5_SPLIT[i]` is `5^i` scaled by a power of two to exactly 125
/// bits; `POW5_INV_SPLIT[i]` is `⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1`.
struct Tables {
    pow5: Vec<u128>,
    pow5_inv: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

fn build_tables() -> Tables {
    // ⌊⌊x / a⌋ / b⌋ = ⌊x / (a·b)⌋, so dividing one 2^TOP by 5 per entry
    // and shifting right gives every ⌊2^j / 5^i⌋ (each j is below TOP).
    const TOP: u32 = 1024;
    let mut pow = vec![1u32];
    let mut inv = vec![0u32; (TOP / 32) as usize];
    inv.push(1);
    let mut pow5 = Vec::with_capacity(POW5_TABLE_SIZE);
    let mut pow5_inv = Vec::with_capacity(POW5_INV_TABLE_SIZE);
    for i in 0..POW5_TABLE_SIZE {
        let len = bit_len(&pow);
        pow5.push(if len > 125 {
            bits_from(&pow, len - 125)
        } else {
            bits_from(&pow, 0) << (125 - len)
        });
        if i < POW5_INV_TABLE_SIZE {
            pow5_inv.push(bits_from(&inv, TOP - (len - 1 + 125)) + 1);
        }
        mul_small(&mut pow, 5);
        div_small(&mut inv, 5);
    }
    Tables { pow5, pow5_inv }
}

/// Bits `[lo, lo + 128)` of a little-endian `u32` bignum.
fn bits_from(x: &[u32], lo: u32) -> u128 {
    let (limb, shift) = ((lo / 32) as usize, lo % 32);
    let word = |i: usize| u128::from(x.get(i).copied().unwrap_or(0));
    let low = (0..4)
        .rev()
        .fold(0u128, |acc, k| acc << 32 | word(limb + k));
    if shift == 0 {
        low
    } else {
        low >> shift | word(limb + 4) << (128 - shift)
    }
}

fn bit_len(x: &[u32]) -> u32 {
    let top = x.iter().rposition(|&w| w != 0).unwrap_or(0);
    32 * top as u32 + (32 - x[top].leading_zeros())
}

fn mul_small(x: &mut Vec<u32>, m: u32) {
    let mut carry = 0u64;
    for w in x.iter_mut() {
        let t = u64::from(*w) * u64::from(m) + carry;
        *w = t as u32;
        carry = t >> 32;
    }
    if carry != 0 {
        x.push(carry as u32);
    }
}

fn div_small(x: &mut [u32], d: u32) {
    let mut rem = 0u64;
    for w in x.iter_mut().rev() {
        let t = rem << 32 | u64::from(*w);
        *w = (t / u64::from(d)) as u32;
        rem = t % u64::from(d);
    }
}

/// `e == 0 ? 1 : ⌈log₂ 5^e⌉` for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let b0 = u128::from(m) * (mul as u64 as u128);
    let b2 = u128::from(m) * (mul >> 64);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// The shortest `digits · 10^exponent` inside the interval that rounds
/// to the finite, nonzero, unsigned float with these IEEE fields, the
/// closer of two candidates and the larger on a tie.
fn d2d(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let t = tables();
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The interval of valid decimal representations, in units of 2^e2.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = mv - 1 - mm_shift;
    let mp = mv + 2;

    // Convert to a decimal power base. Ryū also tracks whether `vr` is
    // exact, but only to round an exact `…5000` tie to even; `{}` rounds
    // it up, which the common case below already does.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = t.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mp, mul, i);
        vm = mul_shift(mm, mul, i);
        // At most one of mp, mv and mm is a multiple of 5, and only an
        // exact bound changes the result.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = t.pow5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The rare case of an exact lower bound, which may be the
        // shortest number itself when the bounds are accepted.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from(
            (vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed_digit >= 5,
        )
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// The number of decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Fills `buf` with the last `buf.len()` decimal digits of `v`. Blocks
/// of eight digits split into two independent halves of four in 32-bit
/// arithmetic, so the divisions do not form one long chain.
fn write_digits(mut v: u64, buf: &mut [u8]) {
    let pair = |d: u32| {
        let d = d as usize * 2;
        [DIGIT_PAIRS[d], DIGIT_PAIRS[d + 1]]
    };
    let mut i = buf.len();
    while i >= 8 {
        let block = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (block / 10_000, block % 10_000);
        buf[i - 8..i - 6].copy_from_slice(&pair(high / 100));
        buf[i - 6..i - 4].copy_from_slice(&pair(high % 100));
        buf[i - 4..i - 2].copy_from_slice(&pair(low / 100));
        buf[i - 2..i].copy_from_slice(&pair(low % 100));
        i -= 8;
    }
    // Fewer than eight digits are left.
    let mut v = v as u32;
    while i >= 2 {
        buf[i - 2..i].copy_from_slice(&pair(v % 100));
        v /= 100;
        i -= 2;
    }
    if i == 1 {
        buf[0] = b'0' + (v % 10) as u8;
    }
}

/// Writes an integer as `{}` does.
pub(super) fn write_i64(n: i64, out: &mut String) {
    // A sign and the 19 digits of `i64::MIN`.
    let mut buf = [b'-'; 20];
    let start = usize::from(n < 0);
    let end = start + decimal_len(n.unsigned_abs());
    write_digits(n.unsigned_abs(), &mut buf[start..end]);
    out.push_str(std::str::from_utf8(&buf[..end]).expect("ASCII sign and digits"));
}

/// Writes a finite `v` exactly as `write!(out, "{v}")` would: shortest
/// round-trip digits, no exponent, a `-` for every negative (`-0`
/// included).
pub(super) fn write_f64(v: f64, out: &mut String) {
    debug_assert!(v.is_finite(), "non-finite numbers are written as null");
    // A sign, `0.`, the 323 zeros before the first digit of the lowest
    // subnormal and 17 digits: every `0` the layout needs is already
    // in place, so the text is built here and copied out once.
    let mut buf = [b'0'; 344];
    let bits = v.to_bits();
    let start = usize::from(bits >> 63 != 0);
    if start == 1 {
        buf[0] = b'-';
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let end = if ieee_mantissa == 0 && ieee_exponent == 0 {
        start + 1
    } else {
        let (mantissa, exponent) = d2d(ieee_mantissa, ieee_exponent);
        let len = decimal_len(mantissa);
        // The decimal point sits `point` digits into the digits.
        let point = len as i32 + exponent;
        if point <= 0 {
            // 0.000ddd
            buf[start + 1] = b'.';
            let first = start + 2 + point.unsigned_abs() as usize;
            write_digits(mantissa, &mut buf[first..first + len]);
            first + len
        } else if (point as usize) < len {
            // dd.ddd
            let point = point as usize;
            write_digits(mantissa, &mut buf[start + 1..start + 1 + len]);
            buf.copy_within(start + 1..start + 1 + point, start);
            buf[start + point] = b'.';
            start + 1 + len
        } else {
            // ddd000
            write_digits(mantissa, &mut buf[start..start + len]);
            start + point as usize
        }
    };
    out.push_str(std::str::from_utf8(&buf[..end]).expect("ASCII sign, digits and point"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_reference_entries() {
        let t = tables();
        assert_eq!(t.pow5.len(), POW5_TABLE_SIZE);
        assert_eq!(t.pow5_inv.len(), POW5_INV_TABLE_SIZE);
        assert_eq!(t.pow5_inv[0], (1 << 125) + 1);
        assert_eq!(
            t.pow5_inv[1],
            u128::from(1_844_674_407_370_955_161u64) << 64 | 11_068_046_444_225_730_970
        );
        assert_eq!(t.pow5[0], 1 << 124);
        assert_eq!(t.pow5[1], 5 << 122);
        // 5^54 is the first power past 125 bits: truncated, not rounded.
        assert_eq!(t.pow5[54], 5u128.pow(54) >> 1);
        for (i, &p) in t.pow5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), 125, "POW5_SPLIT[{i}]");
        }
    }

    #[test]
    fn ties_round_up_like_display() {
        let tie = 1.0 + 2f64.powi(-17);
        let mut out = String::new();
        write_f64(tie, &mut out);
        assert_eq!(out, "1.0000076293945313");
        assert_eq!(out, format!("{tie}"));
    }
}
