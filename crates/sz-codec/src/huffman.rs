//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ encodes error-quantization codes (≈2¹⁶ possible bins) with a
//! customized Huffman coder; this is the equivalent. Codes are canonical so
//! the table serializes as (symbol, length) pairs and decoding needs only
//! per-length first-code offsets.

use crate::bitstream::{BitReader, BitWriter};
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::collections::BinaryHeap;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if a longer code appears (pathological skew).
const MAX_CODE_LEN: u32 = 32;

/// Width of the primary decode lookup table. Every code of length
/// ≤ `DECODE_TABLE_BITS` resolves with one table load; longer codes fall
/// back to the canonical per-length walk. 12 bits ⇒ a 4096-entry table
/// (32 KiB) that stays L1/L2-resident while covering the entire hot
/// symbol mass of quantization streams.
const DECODE_TABLE_BITS: u32 = 12;

/// Below this symbol count the lookup-table build costs more than it
/// saves; decode falls through to the bit-by-bit reference walk.
const DECODE_TABLE_MIN_SYMBOLS: usize = 64;

/// A built Huffman code book.
#[derive(Clone, Debug)]
pub struct HuffmanCode {
    /// (symbol, code length) for every used symbol, canonical order.
    lens: Vec<(u32, u32)>,
    /// Dense encode table indexed by symbol: (code, len); len = 0 = unused.
    /// Empty for a code book read from a stream, which only decodes.
    encode: Vec<(u64, u32)>,
}

impl HuffmanCode {
    /// Build a code book from symbol frequencies. `freqs` maps symbol →
    /// count; zero-count symbols are ignored. Panics if no symbol has a
    /// positive count.
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Self {
        let used: Vec<(u32, u64)> = freqs.iter().copied().filter(|&(_, c)| c > 0).collect();
        assert!(!used.is_empty(), "Huffman build with no symbols");
        let mut shift = 0u32;
        let mut lens = loop {
            let lens = build_lengths(&used, shift);
            if lens.iter().all(|&(_, l)| l <= MAX_CODE_LEN) {
                break lens;
            }
            shift += 4; // flatten frequencies and retry
        };
        // Canonical order: by (length, symbol).
        lens.sort_by_key(|&(s, l)| (l, s));
        let max_symbol = lens.iter().map(|&(s, _)| s).max().unwrap_or(0);
        let mut encode = vec![(0u64, 0u32); max_symbol as usize + 1];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for &(sym, len) in &lens {
            code <<= len - prev_len;
            prev_len = len;
            encode[sym as usize] = (code, len);
            code += 1;
        }
        HuffmanCode { lens, encode }
    }

    /// Encode a symbol sequence into a bit-packed byte vector.
    pub fn encode(&self, symbols: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(symbols, &mut out);
        out
    }

    /// Append the bit-packed encoding of `symbols` to `out` through a
    /// 64-bit accumulator (one shift+or per symbol, one store per byte)
    /// instead of the per-bit [`BitWriter`] loop. Byte-identical to
    /// [`HuffmanCode::encode_reference`].
    /// Accepts any symbol type that widens to `u32` (byte tokens encode
    /// without a widened copy).
    pub fn encode_into<S: Copy + Into<u32>>(&self, symbols: &[S], out: &mut Vec<u8>) {
        // Valid bits live in acc[0, nbits); after the drain loop nbits ≤ 7,
        // so `acc << len` with len ≤ MAX_CODE_LEN = 32 never overflows.
        // Stale bits above the valid region are cut by the `as u8` casts.
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &s in symbols {
            let s: u32 = s.into();
            let (code, len) = self.encode[s as usize];
            debug_assert!(len > 0, "symbol {s} not in code book");
            acc = (acc << len) | code;
            nbits += len;
            while nbits >= 8 {
                nbits -= 8;
                out.push((acc >> nbits) as u8);
            }
        }
        if nbits > 0 {
            out.push((acc << (8 - nbits)) as u8);
        }
    }

    /// The original per-bit encode loop, kept as the equivalence oracle
    /// and the "before" series of the kernel benches.
    pub fn encode_reference(&self, symbols: &[u32]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &s in symbols {
            let (code, len) = self.encode[s as usize];
            debug_assert!(len > 0, "symbol {s} not in code book");
            w.write_bits(code, len);
        }
        w.into_bytes()
    }

    /// Code length in bits for `sym`; 0 when the symbol is not in the book.
    fn code_len(&self, sym: u32) -> u32 {
        self.encode.get(sym as usize).map(|&(_, l)| l).unwrap_or(0)
    }

    /// Mean code length in bits, frequency-weighted by `freqs` — used by
    /// size estimators.
    pub fn mean_bits(&self, freqs: &[(u32, u64)]) -> f64 {
        let mut bits = 0u128;
        let mut count = 0u128;
        for &(s, c) in freqs {
            if c == 0 {
                continue;
            }
            let (_, len) = self.encode[s as usize];
            bits += (len as u128) * c as u128;
            count += c as u128;
        }
        if count == 0 {
            0.0
        } else {
            bits as f64 / count as f64
        }
    }

    /// Decode exactly `n` symbols from the bit stream.
    ///
    /// Table-driven: codes of length ≤ `DECODE_TABLE_BITS` resolve with
    /// a single lookup on the next 12 peeked bits; longer codes continue
    /// the canonical per-length walk from the peeked prefix, and the final
    /// few bytes fall back to the bit-by-bit walk so end-of-stream
    /// handling matches [`HuffmanCode::decode_reference`] exactly. Because
    /// the code is prefix-free, the table lookup selects the same unique
    /// code the reference walk finds, so results (including the typed
    /// errors on truncated or invalid streams) are identical.
    pub fn decode(&self, bytes: &[u8], n: usize) -> CodecResult<Vec<u32>> {
        // Every symbol costs at least one bit, so a count beyond 8 bits
        // per payload byte can only come from a corrupted header.
        if n as u128 > bytes.len() as u128 * 8 {
            return Err(CodecError::LimitExceeded {
                what: "symbol count",
                claimed: n as u128,
                available: bytes.len() as u128 * 8,
            });
        }
        if n < DECODE_TABLE_MIN_SYMBOLS || self.lens.is_empty() {
            return self.decode_reference(bytes, n);
        }
        let canon = Canonical::build(&self.lens);
        let max_len = canon.max_len;
        let tb = DECODE_TABLE_BITS.min(max_len as u32);
        // lut[next tb bits] = (symbol, code length); length 0 = long code.
        // Canonical codes are assigned in (length, symbol) order, so every
        // slot sharing a code's prefix is filled exactly once.
        let mut lut = vec![(0u32, 0u8); 1usize << tb];
        {
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &(sym, len) in &self.lens {
                code <<= len - prev_len;
                prev_len = len;
                if len <= tb {
                    // A forged table can over-subscribe the code space
                    // (Kraft sum > 1), spilling the canonical assignment
                    // past `len` bits and off the end of the LUT. The
                    // reference walk is total over such tables and is
                    // this decoder's behavioural contract, so defer to
                    // it rather than index out of range.
                    if code >> len != 0 {
                        return self.decode_reference(bytes, n);
                    }
                    let base = (code << (tb - len)) as usize;
                    for e in &mut lut[base..base + (1usize << (tb - len))] {
                        *e = (sym, len as u8);
                    }
                }
                code += 1;
            }
        }
        let total_bits = bytes.len() * 8;
        let mut out = Vec::with_capacity(n);
        // Persistent bit buffer: the next unconsumed bits sit left-aligned
        // in `buf` (`nbits` of them valid), refilled a byte at a time from
        // `byte_pos`. Peeking `tb` bits is then one shift per symbol
        // instead of a fresh unaligned load + byte-swap, and the refill
        // amortizes to one load per ~7 decoded-code bytes.
        let mut buf: u64 = 0;
        let mut nbits: u32 = 0;
        let mut byte_pos = 0usize;
        while out.len() < n {
            while nbits <= 56 && byte_pos < bytes.len() {
                buf |= (bytes[byte_pos] as u64) << (56 - nbits);
                nbits += 8;
                byte_pos += 1;
            }
            if nbits >= tb {
                let idx = (buf >> (64 - tb)) as usize;
                let (sym, hit_len) = lut[idx];
                if hit_len != 0 {
                    out.push(sym);
                    buf <<= hit_len;
                    nbits -= hit_len as u32;
                    continue;
                }
                // No code of length ≤ tb matches the peeked bits: resume
                // the canonical walk on the raw stream with those tb bits
                // already consumed, then re-sync the buffer. Long codes
                // are rare by construction, so the re-sync cost is noise.
                let pos = byte_pos * 8 - nbits as usize;
                let (sym, new_pos) =
                    self.walk_one(bytes, total_bits, pos + tb as usize, idx as u64, tb, &canon)?;
                out.push(sym);
                byte_pos = new_pos.div_ceil(8);
                nbits = (byte_pos * 8 - new_pos) as u32;
                buf = if nbits == 0 {
                    0
                } else {
                    (bytes[byte_pos - 1] as u64) << (56 + (8 - nbits))
                };
            } else {
                // Fewer than `tb` buffered bits and the stream is drained:
                // exact reference bit-by-bit walk for the tail symbols.
                let pos = byte_pos * 8 - nbits as usize;
                let (sym, new_pos) = self.walk_one(bytes, total_bits, pos, 0, 0, &canon)?;
                out.push(sym);
                byte_pos = new_pos.div_ceil(8);
                nbits = (byte_pos * 8 - new_pos) as u32;
                buf = if nbits == 0 {
                    0
                } else {
                    (bytes[byte_pos - 1] as u64) << (56 + (8 - nbits))
                };
            }
        }
        Ok(out)
    }

    /// One symbol of the canonical bit-by-bit walk, starting `len0` bits
    /// into a code whose prefix is `code0`. Bit-for-bit the reference
    /// decode loop, including the order of the exhausted/invalid checks.
    fn walk_one(
        &self,
        bytes: &[u8],
        total_bits: usize,
        mut pos: usize,
        code0: u64,
        len0: u32,
        canon: &Canonical,
    ) -> CodecResult<(u32, usize)> {
        let mut code = code0;
        let mut len = len0 as usize;
        loop {
            if pos >= total_bits {
                return Err(CodecError::corrupt("huffman stream exhausted"));
            }
            let bit = ((bytes[pos >> 3] >> (7 - (pos & 7))) & 1) as u64;
            pos += 1;
            code = (code << 1) | bit;
            len += 1;
            if len > canon.max_len {
                return Err(CodecError::corrupt("invalid huffman code"));
            }
            let rel = code.wrapping_sub(canon.first_code[len]);
            if canon.count[len] > 0
                && code >= canon.first_code[len]
                && (rel as usize) < canon.count[len]
            {
                return Ok((self.lens[canon.first_index[len] + rel as usize].0, pos));
            }
        }
    }

    /// The original bit-by-bit decode loop, kept verbatim as the
    /// equivalence oracle and the "before" series of the kernel benches.
    pub fn decode_reference(&self, bytes: &[u8], n: usize) -> CodecResult<Vec<u32>> {
        if n as u128 > bytes.len() as u128 * 8 {
            return Err(CodecError::LimitExceeded {
                what: "symbol count",
                claimed: n as u128,
                available: bytes.len() as u128 * 8,
            });
        }
        // Per-length canonical decode tables.
        let max_len = self.lens.last().map(|&(_, l)| l).unwrap_or(0);
        // first_code[len], first_index[len] into self.lens.
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0usize; max_len as usize + 2];
        let mut count = vec![0usize; max_len as usize + 2];
        for &(_, l) in &self.lens {
            count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=max_len as usize {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
        }
        let mut out = Vec::with_capacity(n);
        let mut r = BitReader::new(bytes);
        // Single-symbol streams use 1-bit codes; the general path handles it.
        for _ in 0..n {
            let mut code = 0u64;
            let mut len = 0usize;
            loop {
                let bit = r
                    .read_bit()
                    .ok_or_else(|| CodecError::corrupt("huffman stream exhausted"))?;
                code = (code << 1) | bit;
                len += 1;
                if len > max_len as usize {
                    return Err(CodecError::corrupt("invalid huffman code"));
                }
                let rel = code.wrapping_sub(first_code[len]);
                if count[len] > 0 && code >= first_code[len] && (rel as usize) < count[len] {
                    out.push(self.lens[first_index[len] + rel as usize].0);
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Serialize the code book (symbol/length pairs).
    pub fn write_table(&self, w: &mut Writer) {
        w.put_u32(self.lens.len() as u32);
        for &(s, l) in &self.lens {
            w.put_u32(s);
            w.put_u8(l as u8);
        }
    }

    /// Deserialize a code book written by [`HuffmanCode::write_table`].
    /// The result decodes only; its allocations are bounded by the
    /// table's length on the wire.
    pub fn read_table(r: &mut Reader<'_>) -> CodecResult<Self> {
        let n = r.get_u32()? as usize;
        if n == 0 {
            return Err(CodecError::corrupt("empty huffman table"));
        }
        // Each table entry occupies 5 bytes (u32 symbol + u8 length).
        r.check_count(n, 5)?;
        let mut lens = Vec::with_capacity(n);
        for _ in 0..n {
            let s = r.get_u32()?;
            let l = r.get_u8()? as u32;
            if l == 0 || l > MAX_CODE_LEN {
                return Err(CodecError::corrupt(format!("bad code length {l}")));
            }
            lens.push((s, l));
        }
        // Decode reads only the canonical lengths. No encode table is
        // built: it would be sized by a symbol id read from the wire.
        lens.sort_by_key(|&(s, l)| (l, s));
        Ok(HuffmanCode {
            lens,
            encode: Vec::new(),
        })
    }

    /// Number of distinct symbols.
    pub fn num_symbols(&self) -> usize {
        self.lens.len()
    }
}

/// Per-length canonical decode arrays shared by the table decoder's slow
/// paths: `first_code[len]` / `first_index[len]` into the canonical
/// (length, symbol)-ordered code list, `count[len]` codes per length.
struct Canonical {
    max_len: usize,
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    count: Vec<usize>,
}

impl Canonical {
    fn build(lens: &[(u32, u32)]) -> Self {
        let max_len = lens.last().map(|&(_, l)| l).unwrap_or(0) as usize;
        let mut first_code = vec![0u64; max_len + 2];
        let mut first_index = vec![0usize; max_len + 2];
        let mut count = vec![0usize; max_len + 2];
        for &(_, l) in lens {
            count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=max_len {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
        }
        Canonical {
            max_len,
            first_code,
            first_index,
            count,
        }
    }
}

/// Compute code lengths by building the Huffman tree over (possibly
/// flattened) frequencies. `shift` right-shifts counts (then +1) to reduce
/// skew when length limiting is needed.
fn build_lengths(used: &[(u32, u64)], shift: u32) -> Vec<(u32, u32)> {
    if used.len() == 1 {
        return vec![(used[0].0, 1)];
    }
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    // children[id] = (left, right); leaves are ids < used.len().
    let mut children: Vec<(usize, usize)> = Vec::with_capacity(used.len());
    let mut heap = BinaryHeap::with_capacity(used.len());
    for (i, &(_, c)) in used.iter().enumerate() {
        let w = if shift == 0 { c } else { (c >> shift) + 1 };
        heap.push(Node { weight: w, id: i });
    }
    let mut next_id = used.len();
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        children.push((a.id, b.id));
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_id,
        });
        next_id += 1;
    }
    let root = heap.pop().expect("non-empty").id;
    // Depth-first traversal to get leaf depths.
    let mut lens = vec![0u32; used.len()];
    let mut stack = vec![(root, 0u32)];
    while let Some((id, depth)) = stack.pop() {
        if id < used.len() {
            lens[id] = depth.max(1);
        } else {
            let (l, r) = children[id - used.len()];
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
    }
    used.iter()
        .enumerate()
        .map(|(i, &(s, _))| (s, lens[i]))
        .collect()
}

/// Alphabets up to this bound are counted with a dense histogram; larger
/// symbols fall back to the HashMap path. Quantization symbols are
/// `< 2·QUANT_RADIUS = 2¹⁶`, well inside the bound.
const DENSE_HISTOGRAM_MAX: usize = 1 << 17;

/// Count symbol frequencies of a sequence into the sparse `(symbol, count)`
/// form [`HuffmanCode::from_frequencies`] expects.
///
/// Dense-histogram fast path: one pass bounds the alphabet, one pass
/// counts into a flat array, and the symbol-ascending sweep yields the
/// same sorted output the HashMap reference produces.
pub fn count_frequencies(symbols: &[u32]) -> Vec<(u32, u64)> {
    let max = match symbols.iter().copied().max() {
        Some(m) => m,
        None => return Vec::new(),
    };
    if (max as usize) >= DENSE_HISTOGRAM_MAX {
        return count_frequencies_reference(symbols);
    }
    let mut hist = vec![0u64; max as usize + 1];
    for &s in symbols {
        hist[s as usize] += 1;
    }
    hist.iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(s, &c)| (s as u32, c))
        .collect()
}

/// HashMap-based frequency count: the general-alphabet fallback, the
/// equivalence oracle, and the "before" series of the kernel benches.
pub fn count_frequencies_reference(symbols: &[u32]) -> Vec<(u32, u64)> {
    let mut map = std::collections::HashMap::new();
    for &s in symbols {
        *map.entry(s).or_insert(0u64) += 1;
    }
    let mut v: Vec<(u32, u64)> = map.into_iter().collect();
    v.sort_unstable();
    v
}

/// Convenience: encode `symbols` as `table ‖ count ‖ bit-length ‖
/// bitstream`.
pub fn encode_with_table(symbols: &[u32]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_with_table_into(symbols, &mut w);
    w.into_bytes()
}

/// Streaming form of [`encode_with_table`]: appends the encoded block
/// directly to `w`, skipping the intermediate encoded buffer.
/// Byte-identical output.
pub fn encode_with_table_into(symbols: &[u32], w: &mut Writer) {
    if symbols.is_empty() {
        w.put_u32(0);
        return;
    }
    let freqs = count_frequencies(symbols);
    encode_with_histogram_into(symbols, &freqs, w);
}

/// Fused-pass entry point: the caller already histogrammed `symbols`
/// (e.g. while quantizing), so the counting pass is skipped and the
/// payload length prefix is computed from the histogram up front —
/// `Σ len(s)·freq(s)` — letting the bit packer emit straight into `w`.
///
/// `freqs` must be the exact sorted histogram [`count_frequencies`] would
/// produce for `symbols`.
pub fn encode_with_histogram_into<S: Copy + Into<u32>>(
    symbols: &[S],
    freqs: &[(u32, u64)],
    w: &mut Writer,
) {
    if symbols.is_empty() {
        w.put_u32(0);
        return;
    }
    let code = HuffmanCode::from_frequencies(freqs);
    code.write_table(w);
    w.put_u64(symbols.len() as u64);
    let total_bits: u64 = freqs
        .iter()
        .map(|&(s, c)| code.code_len(s) as u64 * c)
        .sum();
    w.put_u64(total_bits.div_ceil(8));
    let before = w.buf_mut().len();
    code.encode_into(symbols, w.buf_mut());
    debug_assert_eq!(
        (w.buf_mut().len() - before) as u64,
        total_bits.div_ceil(8),
        "histogram does not match symbol stream"
    );
}

/// Append `w.put_block(&encode_with_table(symbols))`-equivalent bytes
/// without materializing the inner block: the outer length prefix is
/// computed from the histogram up front (table bytes + count + length
/// prefix + `⌈Σ len(s)·freq(s) / 8⌉` payload bytes), then the table and
/// bit stream are emitted straight into `w`. Byte-identical output.
pub fn encode_block_with_histogram_into(symbols: &[u32], freqs: &[(u32, u64)], w: &mut Writer) {
    if symbols.is_empty() {
        // Empty marker block: u64 length 4 + the zero table count.
        w.put_u64(4);
        w.put_u32(0);
        return;
    }
    let code = HuffmanCode::from_frequencies(freqs);
    let total_bits: u64 = freqs
        .iter()
        .map(|&(s, c)| code.code_len(s) as u64 * c)
        .sum();
    let payload_bytes = total_bits.div_ceil(8);
    let table_bytes = 4 + 5 * code.lens.len() as u64;
    w.put_u64(table_bytes + 8 + 8 + payload_bytes);
    code.write_table(w);
    w.put_u64(symbols.len() as u64);
    w.put_u64(payload_bytes);
    let before = w.buf_mut().len();
    code.encode_into(symbols, w.buf_mut());
    debug_assert_eq!(
        (w.buf_mut().len() - before) as u64,
        payload_bytes,
        "histogram does not match symbol stream"
    );
}

/// [`encode_block_with_histogram_into`] with the histogram computed here.
pub fn encode_block_into(symbols: &[u32], w: &mut Writer) {
    let freqs = count_frequencies(symbols);
    encode_block_with_histogram_into(symbols, &freqs, w);
}

/// The original buffer-building encode path (HashMap count, per-bit
/// writer, intermediate payload vector), kept as the "before" series of
/// the kernel benches.
pub fn encode_with_table_reference(symbols: &[u32]) -> Vec<u8> {
    let mut w = Writer::new();
    if symbols.is_empty() {
        w.put_u32(0);
        return w.into_bytes();
    }
    let freqs = count_frequencies_reference(symbols);
    let code = HuffmanCode::from_frequencies(&freqs);
    code.write_table(&mut w);
    w.put_u64(symbols.len() as u64);
    w.put_block(&code.encode_reference(symbols));
    w.into_bytes()
}

/// Inverse of [`encode_with_table`].
pub fn decode_with_table(bytes: &[u8]) -> CodecResult<Vec<u32>> {
    let mut r = Reader::new(bytes);
    // Peek the symbol count; 0 means the empty-stream marker.
    let n_table = {
        let mut peek = Reader::new(bytes);
        peek.get_u32()?
    };
    if n_table == 0 {
        return Ok(Vec::new());
    }
    let code = HuffmanCode::read_table(&mut r)?;
    let n = r.get_u64()? as usize;
    let payload = r.get_block()?;
    code.decode(payload, n)
}

/// [`decode_with_table`] through the bit-by-bit reference decoder — the
/// "before" series of the kernel benches.
pub fn decode_with_table_reference(bytes: &[u8]) -> CodecResult<Vec<u32>> {
    let mut r = Reader::new(bytes);
    let n_table = {
        let mut peek = Reader::new(bytes);
        peek.get_u32()?
    };
    if n_table == 0 {
        return Ok(Vec::new());
    }
    let code = HuffmanCode::read_table(&mut r)?;
    let n = r.get_u64()? as usize;
    let payload = r.get_block()?;
    code.decode_reference(payload, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let bytes = encode_with_table(symbols);
        let back = decode_with_table(&bytes).expect("decode");
        assert_eq!(back, symbols);
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_distinct_symbol() {
        roundtrip(&[42; 1000]);
        // 1000 × 1-bit codes ≈ 125 bytes payload.
        let bytes = encode_with_table(&[42; 1000]);
        assert!(bytes.len() < 160, "single-symbol stream too large");
    }

    #[test]
    fn two_symbols() {
        let mut syms = vec![7u32; 100];
        syms.extend(vec![9u32; 50]);
        roundtrip(&syms);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95 % center symbol → ≈1.3 bits/symbol, far below the 17 bits a
        // flat encoding of 2^16-range codes would need.
        let mut syms = Vec::new();
        for i in 0..10_000u32 {
            syms.push(if i % 20 == 0 { 32768 + (i % 7) } else { 32768 });
        }
        let bytes = encode_with_table(&syms);
        assert!(bytes.len() < 10_000 * 3 / 8 + 200);
        roundtrip(&syms);
    }

    #[test]
    fn many_symbols_roundtrip() {
        // Pseudo-random (LCG) spread over a wide alphabet.
        let mut x = 12345u64;
        let syms: Vec<u32> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 4096) as u32
            })
            .collect();
        roundtrip(&syms);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<(u32, u64)> = (0..64u32).map(|s| (s, (s as u64 + 1) * 3)).collect();
        let code = HuffmanCode::from_frequencies(&freqs);
        // Kraft sum must be ≤ 1 and codes distinct.
        let mut kraft = 0.0f64;
        let mut seen = std::collections::HashSet::new();
        for &(s, l) in &code.lens {
            kraft += 2f64.powi(-(l as i32));
            let (c, ll) = code.encode[s as usize];
            assert!(seen.insert((c, ll)));
        }
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
    }

    #[test]
    fn mean_bits_reasonable() {
        let freqs = vec![(0u32, 900u64), (1, 50), (2, 50)];
        let code = HuffmanCode::from_frequencies(&freqs);
        let mb = code.mean_bits(&freqs);
        assert!(mb < 1.3, "mean bits {mb}");
    }

    #[test]
    fn truncated_table_errors() {
        let bytes = encode_with_table(&[1, 2, 3, 1, 2, 3]);
        assert!(decode_with_table(&bytes[..3]).is_err());
    }

    /// Deterministic pseudo-random symbol stream over `alphabet` symbols.
    fn lcg_symbols(n: usize, alphabet: u32, seed: u64) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % alphabet as u64) as u32
            })
            .collect()
    }

    /// Skewed stream: mostly one symbol, occasional spread — the shape of
    /// real quantization streams (short hot codes + a long-code tail).
    fn skewed_symbols(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = x >> 33;
                if r % 100 < 90 {
                    32768
                } else {
                    32768 + (r % 4096) as u32
                }
            })
            .collect()
    }

    #[test]
    fn encode_into_matches_reference() {
        for syms in [
            lcg_symbols(5000, 4096, 1),
            skewed_symbols(5000, 2),
            vec![7u32; 300],
            vec![3u32],
        ] {
            let freqs = count_frequencies(&syms);
            let code = HuffmanCode::from_frequencies(&freqs);
            let mut fast = Vec::new();
            code.encode_into(&syms, &mut fast);
            assert_eq!(fast, code.encode_reference(&syms));
        }
    }

    #[test]
    fn count_frequencies_matches_reference() {
        for syms in [
            lcg_symbols(5000, 4096, 3),
            skewed_symbols(2000, 4),
            Vec::new(),
            vec![0u32; 10],
            // Huge symbols force the HashMap fallback.
            vec![u32::MAX, 5, u32::MAX, 0],
        ] {
            assert_eq!(count_frequencies(&syms), count_frequencies_reference(&syms));
        }
    }

    #[test]
    fn table_decode_matches_reference() {
        for syms in [
            lcg_symbols(10_000, 4096, 5),
            lcg_symbols(10_000, 65536, 6), // wide alphabet → long codes
            skewed_symbols(10_000, 7),
            lcg_symbols(100, 17, 8), // near the table-build threshold
            vec![42u32; 1000],
        ] {
            let bytes = encode_with_table(&syms);
            assert_eq!(decode_with_table(&bytes).expect("decode"), syms);
            assert_eq!(decode_with_table_reference(&bytes).expect("ref"), syms);
        }
    }

    #[test]
    fn table_decode_error_parity_on_damage() {
        // Truncations and bit flips must produce the same Ok/Err outcome
        // as the reference decoder (zero padding can legitimately decode,
        // so "is error" alone is not enough — compare both ways).
        let syms = skewed_symbols(3000, 9);
        let freqs = count_frequencies(&syms);
        let code = HuffmanCode::from_frequencies(&freqs);
        let payload = code.encode(&syms);
        for cut in (0..payload.len()).step_by(7) {
            let fast = code.decode(&payload[..cut], syms.len());
            let slow = code.decode_reference(&payload[..cut], syms.len());
            match (&fast, &slow) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "cut={cut}"),
                (Err(_), Err(_)) => {}
                _ => panic!("cut={cut}: fast={fast:?} slow={slow:?}"),
            }
        }
        let mut flipped = payload.clone();
        for i in (0..flipped.len()).step_by(11) {
            flipped[i] ^= 0x40;
            let fast = code.decode(&flipped, syms.len());
            let slow = code.decode_reference(&flipped, syms.len());
            match (&fast, &slow) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "flip={i}"),
                (Err(_), Err(_)) => {}
                _ => panic!("flip={i}: fast={fast:?} slow={slow:?}"),
            }
            flipped[i] ^= 0x40;
        }
    }

    #[test]
    fn block_emit_matches_put_block() {
        for syms in [
            skewed_symbols(3000, 12),
            lcg_symbols(500, 9, 13),
            Vec::new(),
        ] {
            let mut a = Writer::new();
            encode_block_into(&syms, &mut a);
            let mut b = Writer::new();
            b.put_block(&encode_with_table_reference(&syms));
            assert_eq!(a.into_bytes(), b.into_bytes());
        }
    }

    #[test]
    fn fused_histogram_encode_matches() {
        let syms = skewed_symbols(4000, 10);
        let freqs = count_frequencies(&syms);
        let mut w = Writer::new();
        encode_with_histogram_into(&syms, &freqs, &mut w);
        assert_eq!(w.into_bytes(), encode_with_table_reference(&syms));
        assert_eq!(encode_with_table(&syms), encode_with_table_reference(&syms));
        assert_eq!(
            encode_with_table(&[]),
            encode_with_table_reference(&[]),
            "empty marker"
        );
    }
}
