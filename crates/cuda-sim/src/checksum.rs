//! CRC64 over device-word payloads, for checksummed transfers.
//!
//! A checked [`crate::Device::transfer`] compares a CRC of the payload
//! before the wire against a CRC of what landed. CRC-64/XZ's generator polynomial detects every single-bit
//! error (the code is linear and no `x^j` is divisible by the degree-64
//! polynomial), which is exactly the corruption class the fault injector
//! models — so a scripted flip can never slip through a checked copy.
//!
//! The simulator hashes the 64-bit storage words directly rather than a
//! serialized byte stream: buffers store one element per word
//! ([`crate::DeviceScalar::to_word`]), so word identity *is* payload
//! identity, and the cost model charges the byte-serialized price
//! ([`crate::Device::CRC64_FLOPS_PER_BYTE`]) independently.

/// Reflected CRC-64/XZ generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// CRC64 over a stream of 64-bit payload words.
pub fn crc64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut crc = !0u64;
    for w in words {
        crc ^= w;
        for _ in 0..64 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_zero_payloads_differ() {
        assert_ne!(crc64([]), crc64([0u64]));
        assert_ne!(crc64([0u64]), crc64([0u64, 0]));
    }

    #[test]
    fn deterministic() {
        let payload = [1u64, 2, 3, u64::MAX];
        assert_eq!(crc64(payload), crc64(payload));
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let payload: Vec<u64> = (0..4u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let clean = crc64(payload.iter().copied());
        for elem in 0..payload.len() {
            for bit in 0..64 {
                let mut flipped = payload.clone();
                flipped[elem] ^= 1u64 << bit;
                assert_ne!(
                    crc64(flipped),
                    clean,
                    "flip at word {elem} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn order_matters() {
        assert_ne!(crc64([1u64, 2]), crc64([2u64, 1]));
    }
}
