//! The typed TE keyspace: [`TeKey`], its wire form, where it is
//! placed, and the per-endpoint [`Changelog`].
//!
//! A key never becomes a heap `String` on the data path. Its wire form
//! (`te:delta:{endpoint}:{version}`, …) is written into a stack buffer
//! to place it on a shard — FNV-1a over exactly those bytes, so every
//! key lands where the string-keyed store put it — and its length is
//! computed arithmetically for the per-shard byte accounting. Shards key
//! their maps by the `TeKey` itself, under a multiplicative hasher.

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Wire form of partition 0's configuration version record.
///
/// Partitioned control planes publish additional per-partition records
/// under `te:config:version:p<N>` (see [`TeKey::Version`]).
pub const CONFIG_VERSION_KEY: &str = "te:config:version";

/// The typed TE-DB keyspace of the delta-versioned control loop.
///
/// Endpoints are raw u64 ids here (the store is topology-agnostic);
/// `megate-core` maps them from `EndpointId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TeKey {
    /// A partition's configuration version record (8-byte big-endian
    /// u64). Partition 0 is the legacy single-controller record and
    /// keeps the historical wire form [`CONFIG_VERSION_KEY`]; a
    /// partitioned control plane gives each controller its own version
    /// clock under `te:config:version:p<N>`.
    Version {
        /// The controller partition owning this version clock.
        partition: u32,
    },
    /// An endpoint's latest full snapshot: `u64 stamp | snapshot body`,
    /// where `stamp` is the version whose state the body reflects.
    Snapshot {
        /// The source endpoint.
        endpoint: u64,
    },
    /// The delta that moves `endpoint` from its state *before*
    /// `version` to its state *at* `version`.
    Delta {
        /// The source endpoint.
        endpoint: u64,
        /// The version this delta produces.
        version: u64,
    },
    /// The endpoint's version changelog: at which retained versions its
    /// configuration changed (see [`Changelog`]).
    Changelog {
        /// The source endpoint.
        endpoint: u64,
    },
}

/// The longest wire form: `te:delta:`, two 20-digit u64s and a colon.
const MAX_WIRE: usize = 50;

/// A key's wire form, built on the stack.
struct Wire {
    buf: [u8; MAX_WIRE],
    len: usize,
}

impl Wire {
    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.push(&digits[at..]);
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("wire forms are ASCII")
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl TeKey {
    fn wire_form(&self) -> Wire {
        let mut w = Wire {
            buf: [0; MAX_WIRE],
            len: 0,
        };
        match *self {
            TeKey::Version { partition: 0 } => w.push(CONFIG_VERSION_KEY.as_bytes()),
            TeKey::Version { partition } => {
                w.push(CONFIG_VERSION_KEY.as_bytes());
                w.push(b":p");
                w.push_u64(partition as u64);
            }
            TeKey::Snapshot { endpoint } => {
                w.push(b"te:snap:");
                w.push_u64(endpoint);
            }
            TeKey::Delta { endpoint, version } => {
                w.push(b"te:delta:");
                w.push_u64(endpoint);
                w.push(b":");
                w.push_u64(version);
            }
            TeKey::Changelog { endpoint } => {
                w.push(b"te:log:");
                w.push_u64(endpoint);
            }
        }
        w
    }

    /// The wire (string) form: what a Redis deployment would store the
    /// record under, and what placement hashes.
    pub fn wire(&self) -> String {
        self.wire_form().as_str().to_owned()
    }

    /// Length of [`wire`](Self::wire) in bytes, without building it.
    pub fn wire_len(&self) -> usize {
        match *self {
            TeKey::Version { partition: 0 } => CONFIG_VERSION_KEY.len(),
            TeKey::Version { partition } => CONFIG_VERSION_KEY.len() + 2 + digits(partition as u64),
            TeKey::Snapshot { endpoint } => 8 + digits(endpoint),
            TeKey::Delta { endpoint, version } => 10 + digits(endpoint) + digits(version),
            TeKey::Changelog { endpoint } => 7 + digits(endpoint),
        }
    }

    /// FNV-1a over the wire form: the shard a key lands on is this
    /// modulo the shard count.
    pub(crate) fn placement(&self) -> u64 {
        let w = self.wire_form();
        fnv(&w.buf[..w.len])
    }
}

impl std::fmt::Display for TeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_form().as_str())
    }
}

fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A multiplicative hasher for the shard maps. A [`TeKey`] hashes as a
/// discriminant and one or two integers, so one multiply per word is
/// enough; the final rotation moves the well-mixed high bits to where
/// the table takes its bucket index. It offers no protection against
/// crafted collisions, which needs none here: only the controller
/// writes keys, and agents' requests only look them up.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A shard's map type.
pub(crate) type KeyMap<V> = std::collections::HashMap<TeKey, V, BuildHasherDefault<KeyHasher>>;

/// A per-endpoint version changelog: the versions at which the
/// endpoint's configuration changed, complete for every version
/// strictly greater than `complete_since` (older deltas may have been
/// garbage-collected — an agent whose installed version predates
/// `complete_since` must fall back to the snapshot).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Changelog {
    /// The log is complete for changes at versions `> complete_since`.
    pub complete_since: u64,
    /// Ascending change versions still retained.
    pub versions: Vec<u64>,
}

impl Changelog {
    /// Wire encoding: `u64 complete_since | u32 count | count × u64`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.versions.len() * 8);
        out.extend_from_slice(&self.complete_since.to_be_bytes());
        out.extend_from_slice(&(self.versions.len() as u32).to_be_bytes());
        for v in &self.versions {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Bounds-checked decode; `None` on truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let complete_since = u64::from_be_bytes(bytes.get(0..8)?.try_into().ok()?);
        let count = u32::from_be_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
        if bytes.len() != 12 + count * 8 {
            return None;
        }
        let mut versions = Vec::with_capacity(count);
        for i in 0..count {
            let at = 12 + i * 8;
            versions.push(u64::from_be_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
        }
        Some(Self {
            complete_since,
            versions,
        })
    }

    /// The encoded log holding only `version`: what an append creates.
    pub(crate) fn fresh(version: u64) -> Arc<[u8]> {
        let mut out = [0u8; 20];
        out[8..12].copy_from_slice(&1u32.to_be_bytes());
        out[12..].copy_from_slice(&version.to_be_bytes());
        Arc::from(&out[..])
    }

    /// The encoded log with `version` appended, computed on the encoded
    /// bytes in one allocation: `None` when the log already ends at
    /// `version` (an idempotent re-publish). A malformed log is
    /// replaced by a [`fresh`](Self::fresh) one.
    pub(crate) fn appended(old: &[u8], version: u64) -> Option<Arc<[u8]>> {
        let Some(count) = Self::decode_count(old) else {
            return Some(Self::fresh(version));
        };
        if count > 0 && old[old.len() - 8..] == version.to_be_bytes() {
            return None;
        }
        let count = (count as u32 + 1).to_be_bytes();
        let version = version.to_be_bytes();
        Some(
            old[..8]
                .iter()
                .chain(&count)
                .chain(&old[12..])
                .chain(&version)
                .copied()
                .collect(),
        )
    }

    /// The encoded log with every version `<= floor` dropped and
    /// `complete_since` raised to `floor`, plus the dropped versions;
    /// `None` when the log is malformed or already pruned to `floor`.
    pub(crate) fn pruned(encoded: &[u8], floor: u64) -> Option<(Arc<[u8]>, Vec<u64>)> {
        let log = Self::decode(encoded)?;
        let (dropped, kept): (Vec<u64>, Vec<u64>) = log.versions.iter().partition(|&&v| v <= floor);
        if dropped.is_empty() && log.complete_since >= floor {
            return None;
        }
        let pruned = Changelog {
            complete_since: log.complete_since.max(floor),
            versions: kept,
        };
        Some((pruned.encode().into(), dropped))
    }

    /// The count field of a well-formed encoded log.
    fn decode_count(bytes: &[u8]) -> Option<usize> {
        let count = u32::from_be_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
        (bytes.len() == 12 + count * 8).then_some(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of key, `n` of each, over a spread of integers.
    fn keys(n: u64) -> impl Iterator<Item = TeKey> {
        (0..n).flat_map(|i| {
            let e = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64);
            [
                TeKey::Version {
                    partition: (i as u32).wrapping_mul(2_654_435_761) >> (i % 32),
                },
                TeKey::Snapshot { endpoint: e },
                TeKey::Delta {
                    endpoint: i,
                    version: e,
                },
                TeKey::Changelog { endpoint: e },
            ]
        })
    }

    #[test]
    fn wire_len_and_display_match_the_wire_form() {
        for key in keys(2_000).chain([
            TeKey::Version { partition: 0 },
            TeKey::Delta {
                endpoint: u64::MAX,
                version: u64::MAX,
            },
        ]) {
            let wire = key.wire();
            assert_eq!(key.wire_len(), wire.len(), "{wire}");
            assert_eq!(key.to_string(), wire);
        }
    }

    #[test]
    fn shard_of_is_fnv_of_the_wire_string() {
        // The string-keyed store's placement formula, kept here as the
        // oracle: any drift would move keys between shards (and with
        // them every "the shard without the version record" choice,
        // `tedb.shard_imbalance` and the per-shard counters).
        let oracle = |wire: &str| {
            let mut h: u64 = 0xcbf29ce484222325;
            for &b in wire.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        };
        let dbs: Vec<_> = [1, 2, 3, 8].map(crate::TeDatabase::new).into();
        for key in keys(10_000) {
            let h = oracle(&key.wire());
            for db in &dbs {
                let n = db.shard_count() as u64;
                assert_eq!(db.shard_of(&key), (h % n) as usize, "{key} on {n} shards");
            }
        }
    }

    #[test]
    fn appended_grows_the_encoded_log() {
        let fresh = Changelog::fresh(4);
        assert_eq!(
            Changelog::decode(&fresh),
            Some(Changelog {
                complete_since: 0,
                versions: vec![4]
            })
        );
        let log = Changelog {
            complete_since: 2,
            versions: vec![3, 5],
        }
        .encode();
        let grown = Changelog::appended(&log, 9).unwrap();
        assert_eq!(
            Changelog::decode(&grown),
            Some(Changelog {
                complete_since: 2,
                versions: vec![3, 5, 9]
            })
        );
        assert_eq!(Changelog::appended(&grown, 9), None, "dedupes");
        let garbage = Changelog::appended(&[9, 9], 7).unwrap();
        assert_eq!(Changelog::decode(&garbage).unwrap().versions, vec![7]);
    }
}
