//! Lossless back end: LZ77 (hash-chain match finder) + order-0 byte
//! Huffman.
//!
//! SZ runs Zstd over its Huffman-coded quantization stream; this module is
//! the from-scratch stand-in (see README.md). What matters for the paper's
//! experiments is the *scaling behaviour*: long repeated patterns (runs of
//! the centre quantization code in smooth data) collapse to near-zero size,
//! and encoding efficiency grows with buffer size — which is exactly what
//! makes many small HDF5 chunks lose to one large chunk.

use crate::huffman;
use crate::wire::{CodecError, CodecResult, Reader, Writer};

const MIN_MATCH: usize = 4;
const WINDOW: usize = 1 << 16; // u16 distances
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;

/// Compress `data`. The output embeds the original length.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out);
    out
}

/// Compress `data`, appending to `out` (the buffer-reusing hot path).
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    let tokens = lz_parse(data);
    // Order-0 entropy stage over the token bytes: a 256-bin histogram
    // gives the sorted `(symbol, count)` list `count_frequencies` would.
    let mut hist = [0u64; 256];
    for &b in &tokens {
        hist[b as usize] += 1;
    }
    let freqs: Vec<(u32, u64)> = (0u32..).zip(hist).filter(|&(_, c)| c > 0).collect();
    let mut ew = Writer::new();
    huffman::encode_with_histogram_into(&tokens, &freqs, &mut ew);
    let entropy = ew.into_bytes();
    let mut w = Writer::from_vec(std::mem::take(out));
    w.put_u64(data.len() as u64);
    // Keep whichever representation is smaller; raw fallback keeps the
    // worst case bounded (header + data).
    if entropy.len() < tokens.len() {
        w.put_u8(2); // LZ + Huffman
        w.put_block(&entropy);
    } else if tokens.len() < data.len() {
        w.put_u8(1); // LZ only
        w.put_block(&tokens);
    } else {
        w.put_u8(0); // stored
        w.put_block(data);
    }
    *out = w.into_bytes();
}

/// Ceiling on a stream's declared decompressed length. LZ matches expand
/// legitimately without any input-proportional bound (long RLE runs), so
/// a corrupt header can't be caught by comparing against the token count;
/// this cap rejects absurd claims deterministically, far above any
/// payload this workspace produces (whole snapshots are megabytes).
const MAX_DECODE_LEN: usize = 1 << 34; // 16 GiB

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> CodecResult<Vec<u8>> {
    let mut r = Reader::new(bytes);
    let orig_len = r.get_u64()? as usize;
    if orig_len > MAX_DECODE_LEN {
        return Err(CodecError::LimitExceeded {
            what: "declared length",
            claimed: orig_len as u128,
            available: MAX_DECODE_LEN as u128,
        });
    }
    let mode = r.get_u8()?;
    let payload = r.get_block()?;
    match mode {
        0 => {
            if payload.len() != orig_len {
                return Err(CodecError::corrupt("stored block length mismatch"));
            }
            Ok(payload.to_vec())
        }
        1 => lz_expand(payload, orig_len),
        2 => {
            let tokens = huffman::decode_with_table(payload)?;
            let token_bytes: Vec<u8> = tokens
                .into_iter()
                .map(|t| {
                    u8::try_from(t).map_err(|_| CodecError::corrupt("token out of byte range"))
                })
                .collect::<CodecResult<_>>()?;
            lz_expand(&token_bytes, orig_len)
        }
        m => Err(CodecError::BadMode { found: m }),
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Greedy hash-chain LZ77 parse into the token format:
/// * literal run: control byte `0x00..=0x7F` = run length − 1 (0x7F adds a
///   varint extension), then the literal bytes;
/// * match: control byte `0x80 | (len − MIN_MATCH)` (0x7F extension adds a
///   varint), then a little-endian u16 distance (≥ 1).
///
/// At each position the longest match among the `MAX_CHAIN` most recent
/// same-hash positions inside the window wins, the nearest on ties. The
/// match finder is exact-parse: it skips work, never candidates, so its
/// tokens are those of the plain chain walk (`lz_parse_reference`, the
/// test oracle). It rejects a candidate that cannot beat the best length
/// with one byte compare at that length, extends matches eight bytes at a
/// time, and stops walking once a match reaches the end of the input.
/// Chain links live in a `WINDOW`-entry ring of `u16` distances (0 = end
/// of chain): a walk only visits positions less than `WINDOW` behind the
/// cursor, whose ring slots no later position has overwritten yet.
fn lz_parse(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut link = vec![0u16; WINDOW];
    // Insert position p into its hash chain.
    fn insert(data: &[u8], head: &mut [usize], link: &mut [u16], p: usize) {
        let h = hash4(data, p);
        let last = head[h];
        link[p % WINDOW] = if last != usize::MAX && p - last < WINDOW {
            (p - last) as u16
        } else {
            0
        };
        head[h] = p;
    }
    let hash_limit = data.len().saturating_sub(MIN_MATCH - 1);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < hash_limit {
            let limit = data.len() - i;
            let mut cand = head[hash4(data, i)];
            let mut chain = 0;
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                // Only a candidate agreeing at offset `best_len` can be
                // longer than the best so far.
                if data[cand + best_len] == data[i + best_len] {
                    let l = match_len(data, cand, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == limit {
                            break; // nothing can be longer
                        }
                    }
                }
                cand = match link[cand % WINDOW] {
                    0 => usize::MAX,
                    d => cand - d as usize,
                };
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &data[lit_start..i]);
            emit_match(&mut out, best_len, best_dist);
            // Register the covered positions so later matches can point
            // into them.
            let end = (i + best_len).min(hash_limit);
            for p in i..end {
                insert(data, &mut head, &mut link, p);
            }
            i += best_len;
            lit_start = i;
        } else {
            if i < hash_limit {
                insert(data, &mut head, &mut link, i);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit` (`b + limit ≤ data.len()`, `a < b`), compared eight bytes at a
/// time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let word = |p: usize| u64::from_le_bytes(data[p..p + 8].try_into().expect("8 bytes"));
    let mut l = 0usize;
    while l + 8 <= limit {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// The plain hash-chain walk `lz_parse` replaced (one `usize` chain link
/// per input byte, byte-at-a-time extension, full chain walks): the
/// oracle its tokens are pinned against.
#[cfg(test)]
fn lz_parse_reference(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    // Insert position p into its hash chain.
    fn insert(data: &[u8], head: &mut [usize], prev: &mut [usize], p: usize) {
        let h = hash4(data, p);
        prev[p] = head[h];
        head[h] = p;
    }
    let hash_limit = data.len().saturating_sub(MIN_MATCH - 1);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < hash_limit {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                let dist = i - cand;
                let limit = data.len() - i;
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &data[lit_start..i]);
            emit_match(&mut out, best_len, best_dist);
            let end = (i + best_len).min(hash_limit);
            for p in i..end {
                insert(data, &mut head, &mut prev, p);
            }
            i += best_len;
            lit_start = i;
        } else {
            if i < hash_limit {
                insert(data, &mut head, &mut prev, i);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(r: &mut std::slice::Iter<'_, u8>) -> CodecResult<usize> {
    let mut v = 0usize;
    let mut shift = 0u32;
    loop {
        let b = *r
            .next()
            .ok_or_else(|| CodecError::corrupt("varint truncated"))?;
        v |= ((b & 0x7F) as usize) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 56 {
            return Err(CodecError::corrupt("varint overflow"));
        }
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    let n = lits.len();
    if n - 1 < 0x7F {
        out.push((n - 1) as u8);
    } else {
        out.push(0x7F);
        put_varint(out, n - 1 - 0x7F);
    }
    out.extend_from_slice(lits);
}

fn emit_match(out: &mut Vec<u8>, len: usize, dist: usize) {
    debug_assert!(len >= MIN_MATCH && (1..WINDOW).contains(&dist));
    let code = len - MIN_MATCH;
    if code < 0x7F {
        out.push(0x80 | code as u8);
    } else {
        out.push(0x80 | 0x7F);
        put_varint(out, code - 0x7F);
    }
    out.extend_from_slice(&(dist as u16).to_le_bytes());
}

fn lz_expand(tokens: &[u8], orig_len: usize) -> CodecResult<Vec<u8>> {
    // Capacity is a hint only: a corrupted `orig_len` must not drive a
    // multi-GB upfront allocation, so cap it; the vec grows as needed for
    // legitimately large (highly repetitive) streams.
    let mut out = Vec::with_capacity(orig_len.min(1 << 24));
    let mut it = tokens.iter();
    while out.len() < orig_len {
        let control = *it
            .next()
            .ok_or_else(|| CodecError::corrupt("token stream truncated"))?;
        if control & 0x80 == 0 {
            let mut n = (control & 0x7F) as usize + 1;
            if control & 0x7F == 0x7F {
                n += get_varint(&mut it)?;
            }
            if n > orig_len - out.len() {
                return Err(CodecError::corrupt("literal run overflows declared length"));
            }
            out.try_reserve(n)
                .map_err(|_| CodecError::corrupt("literal run exceeds available memory"))?;
            for _ in 0..n {
                out.push(
                    *it.next()
                        .ok_or_else(|| CodecError::corrupt("literal run truncated"))?,
                );
            }
        } else {
            let mut len = (control & 0x7F) as usize + MIN_MATCH;
            if control & 0x7F == 0x7F {
                len += get_varint(&mut it)?;
            }
            let lo = *it
                .next()
                .ok_or_else(|| CodecError::corrupt("match dist truncated"))?;
            let hi = *it
                .next()
                .ok_or_else(|| CodecError::corrupt("match dist truncated"))?;
            let dist = u16::from_le_bytes([lo, hi]) as usize;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::corrupt(format!(
                    "bad match distance {dist} at output {}",
                    out.len()
                )));
            }
            if len > orig_len - out.len() {
                return Err(CodecError::corrupt("match overflows declared length"));
            }
            out.try_reserve(len)
                .map_err(|_| CodecError::corrupt("match exceeds available memory"))?;
            // Byte-wise forward copy handles overlapping (RLE-style) matches.
            let start = out.len() - dist;
            for p in 0..len {
                let b = out[start + p];
                out.push(b);
            }
        }
    }
    if out.len() != orig_len {
        return Err(CodecError::corrupt("decompressed length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
        c.len()
    }

    /// Mode-1 bomb payload: one literal byte, then a match with dist 1
    /// and an enormous varint-extended length.
    fn bomb_stream(declared_len: u64) -> Vec<u8> {
        let mut w = crate::wire::Writer::new();
        w.put_u64(declared_len);
        w.put_u8(1);
        let mut tokens = vec![0x00, 0x41]; // literal run of 1 × 'A'
        tokens.push(0x80 | 0x7F); // match, varint-extended length
        tokens.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]); // huge varint
        tokens.extend_from_slice(&1u16.to_le_bytes()); // dist = 1
        w.put_block(&tokens);
        w.into_bytes()
    }

    #[test]
    fn absurd_declared_length_rejected_at_header() {
        // A petabyte claim dies at the MAX_DECODE_LEN ceiling before any
        // token is read.
        assert!(decompress(&bomb_stream(1 << 50)).is_err());
    }

    #[test]
    fn decompression_bomb_rejected_in_expansion() {
        // A claim under the ceiling reaches lz_expand; the huge-varint
        // match (len ≫ declared length) must hit the overflow guard, not
        // expand the output toward the varint value.
        assert!(decompress(&bomb_stream(1 << 30)).is_err());
    }

    #[test]
    fn lying_length_header_rejected() {
        // Declared length larger than the tokens can produce: truncation
        // error, not a hang or giant allocation.
        let mut w = crate::wire::Writer::new();
        w.put_u64(10_000_000);
        w.put_u8(1);
        w.put_block(&[0x00, 0x41]); // a single literal byte
        assert!(decompress(&w.into_bytes()).is_err());
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn short_incompressible() {
        roundtrip(b"a");
        roundtrip(b"abcdefg");
    }

    #[test]
    fn long_zero_run_collapses() {
        let data = vec![0u8; 100_000];
        let n = roundtrip(&data);
        assert!(n < 200, "zero run compressed to {n} bytes");
    }

    #[test]
    fn repeated_pattern() {
        let data: Vec<u8> = (0..50_000)
            .map(|i| ((i % 64) as u8).wrapping_mul(3))
            .collect();
        let n = roundtrip(&data);
        assert!(n < 2_000, "periodic data compressed to {n} bytes");
    }

    #[test]
    fn pseudo_random_does_not_explode() {
        let mut x = 1u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let n = roundtrip(&data);
        assert!(n <= data.len() + 64, "worst case bounded, got {n}");
    }

    #[test]
    fn mixed_structure() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.extend_from_slice(b"headerheaderheader");
            data.push(i as u8);
            data.extend_from_slice(&(i as u64 * 77).to_le_bytes());
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 2);
    }

    #[test]
    fn bigger_is_denser() {
        // Encoding efficiency must improve with buffer size — the property
        // behind the paper's small-chunk pathology (§2.1).
        let unit: Vec<u8> = (0..1024u32).flat_map(|i| (i % 17).to_le_bytes()).collect();
        let small: usize = unit.chunks(256).map(|c| compress(c).len()).sum();
        let large = compress(&unit).len();
        assert!(
            large < small,
            "one large buffer ({large}) should beat many small ({small})"
        );
    }

    #[test]
    fn corrupt_stream_errors() {
        let c = compress(b"hello world hello world hello world");
        assert!(decompress(&c[..4]).is_err());
        let mut bad = c.clone();
        let last = bad.len() - 1;
        bad.truncate(last);
        // Truncation may or may not break depending on padding; flipping the
        // declared length always must.
        let mut bad2 = c;
        bad2[0] ^= 0xFF;
        assert!(decompress(&bad2).is_err());
    }

    /// Lossless payload inside an envelope-framed codec stream.
    fn inner_payload(stream: &[u8]) -> Vec<u8> {
        let env = crate::codec::read_envelope(stream).expect("envelope");
        decompress(&stream[env.payload_offset..]).expect("lossless payload")
    }

    /// Real codec payloads: an SZ_L/R stream, and a temporal stream with
    /// spatial and delta units.
    fn codec_payloads() -> [Vec<u8>; 2] {
        use crate::buffer3::{Buffer3, Dims3};
        use crate::temporal::{TemporalCodec, TemporalConfig, TemporalReference};
        let snapshot = |t: f64| -> Vec<Buffer3> {
            (0..6)
                .map(|u| {
                    let mut b = Buffer3::zeros(Dims3::new(16, 12, 10));
                    b.fill_with(|i, j, k| {
                        (0.3 * i as f64 + t).sin() * (0.2 * j as f64).cos()
                            + 0.1 * k as f64
                            + u as f64
                    });
                    b
                })
                .collect()
        };
        let prev = snapshot(0.0);
        let refs: Vec<&Buffer3> = prev.iter().collect();
        let lr = crate::lr::compress_domains(&refs, &crate::lr::LrConfig::new(1e-4));
        let reference = std::sync::Arc::new(TemporalReference::new(1, prev));
        let mapping = vec![Some(0), None, Some(2), Some(3), None, Some(5)];
        let codec = TemporalCodec::with_reference(TemporalConfig::new(1e-4), reference, mapping);
        let temporal = crate::codec::Codec::compress(&codec, &snapshot(0.01)).unwrap();
        [inner_payload(&lr), inner_payload(&temporal)]
    }

    #[test]
    fn parse_matches_reference_tokens() {
        let mut x = 0x5EEDu64;
        let mut random = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect()
        };
        let periodic =
            |block: &[u8], n: usize| -> Vec<u8> { block.iter().copied().cycle().take(n).collect() };
        let under = random(WINDOW - 1);
        let over = random(WINDOW + 1);
        let mut runs = vec![7u8; WINDOW + 4_464];
        runs.extend(vec![0u8; 2 * WINDOW + 3]);
        runs.extend(b"tail");
        let [lr, temporal] = codec_payloads();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("one byte", b"a".to_vec()),
            ("under MIN_MATCH", b"abc".to_vec()),
            ("exactly MIN_MATCH", b"abcd".to_vec()),
            // The nearest candidate falls one byte short of the end of the
            // input; a farther one reaches it and must win.
            (
                "longest match is the farther one",
                b"abcdeZ1abcdeQ2abcdeZ".to_vec(),
            ),
            ("random 200 KB", random(200_000)),
            (
                "single-byte run past the window",
                vec![0xAB; WINDOW + 1_000],
            ),
            ("runs ending at input end", runs),
            ("period WINDOW - 1", periodic(&under, 3 * WINDOW)),
            ("period WINDOW + 1", periodic(&over, 3 * WINDOW)),
            ("LR payload", lr),
            ("temporal payload", temporal),
        ];
        for (name, data) in cases {
            let tokens = lz_parse(&data);
            assert!(tokens == lz_parse_reference(&data), "{name}: tokens differ");
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "{name}");
        }
    }

    #[test]
    fn long_literal_run_extension() {
        // >128 distinct literals force the varint extension path.
        let data: Vec<u8> = (0..=255u8).chain(0..=255).collect();
        roundtrip(&data);
    }
}
