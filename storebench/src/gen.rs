//! Seeded inputs.
//!
//! Every operation and every payload is a pure function of `(seed, client, index)`, so
//! one seed always yields the same byte-identical op stream, whichever rounds or threads
//! end up executing it. The store only ever sees these generated inputs.

use crate::spec::Spec;

/// Writer id stamped into a key's initial value (no client uses it).
pub const INITIAL_WRITER: u16 = u16::MAX;

/// Bytes of the identifying header at the front of every payload.
pub const HEADER_BYTES: usize = 16;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a `(seed, stream, index)` triple.
pub fn hash3(seed: u64, stream: u64, index: u64) -> u64 {
    mix(seed ^ mix(stream ^ mix(index)))
}

/// GET or PUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
}

/// One generated operation of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    /// Index into the workload's key set.
    pub key: usize,
    /// Payload length of a PUT (unused by GETs).
    pub size: usize,
}

/// Stream ids: clients use their index; other streams sit far above them.
const STREAM_KEY_SIZES: u64 = 1 << 32;
const STREAM_RECONFIG: u64 = (1 << 32) + 1;
const STREAM_PROBE: u64 = (1 << 32) + 2;

/// Operation `index` of `client`'s stream.
///
/// Keys are uniform over the key set; the GET/PUT mix follows the spec's weights; PUT
/// sizes are uniform in ±10% of the nominal value size, so modeled transfer times (and
/// therefore latencies) vary continuously from op to op.
pub fn op(spec: &Spec, seed: u64, client: usize, index: u64) -> Op {
    let h = hash3(seed, client as u64, index);
    let weights = spec.get_weight + spec.put_weight;
    let kind = if (h % weights as u64) < spec.get_weight as u64 {
        Kind::Get
    } else {
        Kind::Put
    };
    let key = (mix(h) % spec.keys as u64) as usize;
    Op {
        kind,
        key,
        size: jittered_size(spec.value_bytes, mix(h ^ 0x5151)),
    }
}

/// Initial payload length of `key` (the same ±10% spread as PUTs).
pub fn initial_size(spec: &Spec, seed: u64, key: usize) -> usize {
    jittered_size(spec.value_bytes, hash3(seed, STREAM_KEY_SIZES, key as u64))
}

fn jittered_size(nominal: usize, h: u64) -> usize {
    let lo = nominal - nominal / 10;
    let span = (nominal / 5) as u64 + 1;
    (lo + (h % span) as usize).max(HEADER_BYTES)
}

/// The payload a PUT writes (or, with [`INITIAL_WRITER`], a key's initial value).
///
/// The header names the writer and index, so every payload differs from every other;
/// the body is a seeded pseudo-random stream.
pub fn payload(seed: u64, writer: u16, index: u64, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&writer.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes()[..6]);
    let mut state = hash3(seed, writer as u64, index);
    out.extend_from_slice(&state.to_le_bytes());
    while out.len() < size {
        state = mix(state);
        let take = (size - out.len()).min(8);
        out.extend_from_slice(&state.to_le_bytes()[..take]);
    }
    out.truncate(size);
    out
}

/// `(writer, index)` named by a payload's header, if it has one.
pub fn parse_header(bytes: &[u8]) -> Option<(u16, u64)> {
    if bytes.len() < HEADER_BYTES {
        return None;
    }
    let writer = u16::from_le_bytes([bytes[0], bytes[1]]);
    let mut idx = [0u8; 8];
    idx[..6].copy_from_slice(&bytes[2..8]);
    Some((writer, u64::from_le_bytes(idx)))
}

/// Key index the reconfiguration thread of a flip workload starts its round robin at.
pub fn reconfig_start(spec: &Spec, seed: u64, round: u64) -> usize {
    (hash3(seed, STREAM_RECONFIG, round) % spec.keys as u64) as usize
}

/// `count` distinct key indices probed by reconfiguration after round `round`.
pub fn probe_keys(spec: &Spec, seed: u64, round: u64, count: usize) -> Vec<usize> {
    let mut keys = Vec::with_capacity(count);
    let mut i = 0;
    while keys.len() < count.min(spec.keys) {
        let k = (hash3(seed, STREAM_PROBE, round * 1_000_003 + i) % spec.keys as u64) as usize;
        if !keys.contains(&k) {
            keys.push(k);
        }
        i += 1;
    }
    keys
}

/// FNV-1a fingerprint of the first `per_client` ops of every client's stream, payload
/// bytes included.
pub fn stream_fingerprint(spec: &Spec, seed: u64, per_client: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for client in 0..spec.clients.len() {
        for index in 0..per_client {
            let o = op(spec, seed, client, index);
            feed(&(o.key as u64).to_le_bytes());
            match o.kind {
                Kind::Get => feed(b"G"),
                Kind::Put => feed(&payload(seed, client as u16, index, o.size)),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Spec, WORKLOADS};

    fn spec(name: &str) -> &'static Spec {
        WORKLOADS.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_pinned_by_fingerprint() {
        let s = spec("abd-small");
        let a = stream_fingerprint(s, 7, 200);
        assert_eq!(a, stream_fingerprint(s, 7, 200));
        // Golden value: changes only if the generator (and so every input) changes.
        assert_eq!(
            a, 0xbc12_6590_75a8_7839,
            "op stream fingerprint moved: {a:#018x}"
        );
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for s in WORKLOADS {
            assert_ne!(
                stream_fingerprint(s, 1, 64),
                stream_fingerprint(s, 2, 64),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn payloads_are_distinct_and_self_describing() {
        let a = payload(3, 0, 5, 1000);
        let b = payload(3, 1, 5, 1000);
        let c = payload(3, 0, 6, 1000);
        assert_eq!(a.len(), 1000);
        assert!(a != b && a != c && b != c);
        assert_eq!(parse_header(&a), Some((0, 5)));
        assert_eq!(
            parse_header(&payload(3, INITIAL_WRITER, 9, 64)),
            Some((INITIAL_WRITER, 9))
        );
    }

    #[test]
    fn mix_and_sizes_follow_the_spec() {
        let s = spec("abd-small");
        let ops: Vec<Op> = (0..31_000).map(|i| op(s, 11, 0, i)).collect();
        let puts = ops.iter().filter(|o| o.kind == Kind::Put).count();
        // 30 GETs per PUT.
        assert!((800..1200).contains(&puts), "{puts} puts");
        assert!(ops.iter().all(|o| o.key < s.keys));
        let lo = s.value_bytes - s.value_bytes / 10;
        let hi = s.value_bytes + s.value_bytes / 10;
        assert!(ops.iter().all(|o| (lo..=hi).contains(&o.size)));
    }
}
