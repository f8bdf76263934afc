//! General systematic Reed-Solomon codec (Vandermonde construction).
//!
//! Backs the paper's §7 discussion that dRAID's I/O disaggregation
//! generalizes beyond standard RAID-5/6: any linear erasure code whose parity
//! rows are per-chunk sums can have its partial terms generated distributedly
//! and reduced in any order. This codec provides `k` data + `m` parity with
//! recovery from any `≤ m` erasures.

use crate::gf256;
use crate::Matrix;

/// Errors returned by [`ReedSolomon`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// More chunks were lost than the code can repair.
    TooManyErasures {
        /// Number of missing chunks.
        missing: usize,
        /// Parity count `m` of the code.
        tolerance: usize,
    },
    /// The surviving set does not form an invertible decode matrix.
    Unrecoverable,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooManyErasures { missing, tolerance } => write!(
                f,
                "{missing} chunks missing but the code only tolerates {tolerance}"
            ),
            CodecError::Unrecoverable => write!(f, "surviving chunk set is not decodable"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A systematic `(k, m)` Reed-Solomon codec over GF(2⁸).
///
/// Chunk indices `0..k` are data; `k..k+m` are parity. Parity row `j` uses
/// coefficients `g^(i·j)` (row 0 is plain XOR — RAID-5's P; row 1 is RAID-6's
/// Q), so `ReedSolomon::new(k, 2)` is exactly the paper's RAID-6 code.
///
/// ```
/// use draid_ec::ReedSolomon;
/// let rs = ReedSolomon::new(4, 2);
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 8]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
/// let parity = rs.encode(&refs);
///
/// // Lose data chunk 1 and parity chunk 0; recover data chunk 1.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
/// shards[1] = None;
/// shards[4] = None;
/// let restored = rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(restored, ());
/// assert_eq!(shards[1].as_deref(), Some(&[2u8; 8][..]));
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `(k + m) × k` generator matrix: identity on top, Vandermonde below.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a codec with `k` data chunks and `m` parity chunks.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0`, or `k + m > 255`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k > 0 && m > 0, "k and m must be positive");
        assert!(k + m <= 255, "GF(256) limits k+m to 255");
        let mut rows = Vec::with_capacity(k + m);
        for r in 0..k {
            let mut row = vec![0u8; k];
            row[r] = 1;
            rows.push(row);
        }
        for j in 0..m {
            rows.push((0..k).map(|i| gf256::exp(i * j)).collect());
        }
        ReedSolomon {
            k,
            m,
            generator: Matrix::from_rows(&rows),
        }
    }

    /// Number of data chunks.
    pub fn data_chunks(&self) -> usize {
        self.k
    }

    /// Number of parity chunks.
    pub fn parity_chunks(&self) -> usize {
        self.m
    }

    /// The parity coefficient applied to data chunk `i` for parity row `j`
    /// (what a dRAID data bdev would use when forwarding its partial term).
    pub fn coefficient(&self, parity_row: usize, data_index: usize) -> u8 {
        self.generator.get(self.k + parity_row, data_index)
    }

    /// Encodes the `m` parity chunks for a full stripe of `k` data chunks.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or chunk lengths differ.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected {} data chunks", self.k);
        let len = data[0].len();
        (0..self.m)
            .map(|j| {
                let mut p = vec![0u8; len];
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(d.len(), len, "chunk length mismatch");
                    gf256::mul_acc(&mut p, d, self.coefficient(j, i));
                }
                p
            })
            .collect()
    }

    /// Reconstructs every missing shard in place. `shards` holds `k + m`
    /// entries (data then parity); `None` marks an erasure.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooManyErasures`] if more than `m` shards are missing;
    /// [`CodecError::Unrecoverable`] if the survivor set cannot decode (does
    /// not happen for the Vandermonde construction with `≤ m` losses, but the
    /// API reports it rather than panicking).
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`, all shards are missing, or present
    /// shards differ in length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        assert_eq!(shards.len(), self.k + self.m, "wrong shard count");
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        let (survivors, decode) = self.decoder(|i| shards[i].is_some())?;
        let len = shards
            .iter()
            .flatten()
            .map(Vec::len)
            .next()
            .expect("at least one shard must be present");
        for s in shards.iter().flatten() {
            assert_eq!(s.len(), len, "chunk length mismatch");
        }

        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        let data: Vec<Vec<u8>> = (0..self.k)
            .map(|i| {
                let mut buf = vec![0u8; len];
                Self::decode_with(&survivors, &decode, &borrowed, i, &mut buf);
                buf
            })
            .collect();

        // Fill the erased shards back in (data directly, parity re-encoded).
        let data_refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = self.encode(&data_refs);
        for idx in missing {
            shards[idx] = Some(if idx < self.k {
                data_refs[idx].to_vec()
            } else {
                parity[idx - self.k].clone()
            });
        }
        Ok(())
    }

    /// Decodes data chunk `index` into `out` from borrowed shards (`k + m`
    /// entries, data then parity; `None` marks an erasure) — the form of
    /// [`ReedSolomon::reconstruct`] that copies no shard and decodes one
    /// chunk.
    ///
    /// Every shard may be the same byte window of its chunk: each parity row
    /// is a column-wise sum, so byte `o` of a chunk depends only on byte `o`
    /// of the others. The decode reads the same survivors as
    /// [`ReedSolomon::reconstruct`] (the first `k` present, data before
    /// parity), so the two agree byte for byte even on an inconsistent
    /// stripe.
    ///
    /// # Errors
    ///
    /// As [`ReedSolomon::reconstruct`].
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`, `index >= k`, or a survivor's
    /// length differs from `out.len()`.
    pub fn decode_data_into(
        &self,
        shards: &[Option<&[u8]>],
        index: usize,
        out: &mut [u8],
    ) -> Result<(), CodecError> {
        assert_eq!(shards.len(), self.k + self.m, "wrong shard count");
        assert!(index < self.k, "chunk {index} is not a data chunk");
        let (survivors, decode) = self.decoder(|i| shards[i].is_some())?;
        Self::decode_with(&survivors, &decode, shards, index, out);
        Ok(())
    }

    /// Picks the `k` shards a decode reads (the first `k` present, data
    /// before parity) and inverts their generator rows, expressing every
    /// data chunk in terms of them.
    fn decoder(&self, present: impl Fn(usize) -> bool) -> Result<(Vec<usize>, Matrix), CodecError> {
        let n = self.k + self.m;
        let missing = (0..n).filter(|&i| !present(i)).count();
        if missing > self.m {
            return Err(CodecError::TooManyErasures {
                missing,
                tolerance: self.m,
            });
        }
        let survivors: Vec<usize> = (0..n).filter(|&i| present(i)).take(self.k).collect();
        let sub = Matrix::from_rows(
            &survivors
                .iter()
                .map(|&r| self.generator.row(r).to_vec())
                .collect::<Vec<_>>(),
        );
        let decode = sub.inverse().ok_or(CodecError::Unrecoverable)?;
        Ok((survivors, decode))
    }

    /// Writes data chunk `index` into `out`: a copy of its shard if that
    /// survived, else `Σ_j decode[index][j] · shard[survivors[j]]`.
    fn decode_with(
        survivors: &[usize],
        decode: &Matrix,
        shards: &[Option<&[u8]>],
        index: usize,
        out: &mut [u8],
    ) {
        if let Some(s) = shards[index] {
            out.copy_from_slice(s);
            return;
        }
        out.fill(0);
        for (j, &r) in survivors.iter().enumerate() {
            gf256::mul_acc(out, shards[r].expect("survivor"), decode.get(index, j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stripe(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|d| {
                (0..len)
                    .map(|i| ((i * 7 + d * 13 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_raid5_and_raid6() {
        let data = sample_stripe(5, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let rs = ReedSolomon::new(5, 2);
        let parity = rs.encode(&refs);
        assert_eq!(parity[0], crate::Raid5::encode(&refs), "row 0 is RAID-5 P");
        let (p, q) = crate::Raid6::encode(&refs);
        assert_eq!(parity[0], p);
        assert_eq!(parity[1], q, "row 1 is RAID-6 Q");
    }

    #[test]
    fn recovers_all_loss_patterns_up_to_m() {
        let k = 4;
        let m = 3;
        let rs = ReedSolomon::new(k, m);
        let data = sample_stripe(k, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();

        let n = k + m;
        // Every subset of up to m erasures (bitmask enumeration).
        for mask in 1u32..(1 << n) {
            if mask.count_ones() as usize > m {
                continue;
            }
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for (i, shard) in shards.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *shard = None;
                }
            }
            rs.reconstruct(&mut shards).expect("within tolerance");
            for (i, (shard, original)) in shards.iter().zip(&full).enumerate() {
                assert_eq!(
                    shard.as_ref().expect("restored"),
                    original,
                    "i={i} mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn decode_data_into_matches_reconstruct_on_any_window() {
        let (k, m) = (4, 2);
        let rs = ReedSolomon::new(k, m);
        let data = sample_stripe(k, 40);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();
        for mask in 1u32..(1 << (k + m)) {
            if mask.count_ones() as usize > m {
                continue;
            }
            let lost = |i: usize| mask & (1 << i) != 0;
            // A window that starts and ends off any word boundary.
            let win = 3..37;
            let shards: Vec<Option<&[u8]>> = full
                .iter()
                .enumerate()
                .map(|(i, c)| (!lost(i)).then(|| &c[win.clone()]))
                .collect();
            for (i, chunk) in data.iter().enumerate() {
                let mut out = vec![0xAA; win.len()];
                rs.decode_data_into(&shards, i, &mut out)
                    .expect("within tolerance");
                assert_eq!(out, chunk[win.clone()], "i={i} mask={mask:b}");
            }
        }
        let none: Vec<Option<&[u8]>> = vec![None; k + m];
        assert_eq!(
            rs.decode_data_into(&none, 0, &mut [0u8; 4]),
            Err(CodecError::TooManyErasures {
                missing: k + m,
                tolerance: m
            })
        );
    }

    #[test]
    fn too_many_erasures_reported() {
        let rs = ReedSolomon::new(3, 2);
        let data = sample_stripe(3, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[3] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(CodecError::TooManyErasures {
                missing: 3,
                tolerance: 2
            })
        );
    }

    #[test]
    fn no_erasures_is_noop() {
        let rs = ReedSolomon::new(2, 1);
        let data = sample_stripe(2, 4);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).expect("nothing to do");
        assert_eq!(shards, before);
    }
}
