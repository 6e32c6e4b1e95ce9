//! The §3.2 catch-up ladder, table-driven: read outcomes are scripted
//! straight into [`PullLadder`] — no sockets, no database — and every
//! case pins both the exact record sequence the ladder asks for and the
//! plan it resolves to. Both transports (`MegaTeSystem::pull_round`,
//! `megate_net::agent::Agent`) drive this one state machine, so what is
//! proven here holds for the code the chaos suites prove and for the
//! code the benchmark measures.

use megate::config::{diff_configs, encode_delta, encode_paths, ConfigDelta, EndpointConfig};
use megate::resilience::{InstallTarget, PullLadder, PullRead, PullStep};
use megate_tedb::{Changelog, TeKey};

const EP: u64 = 42;
const CHANGELOG: TeKey = TeKey::Changelog { endpoint: EP };
const SNAPSHOT: TeKey = TeKey::Snapshot { endpoint: EP };

fn delta_key(version: u64) -> TeKey {
    TeKey::Delta {
        endpoint: EP,
        version,
    }
}

/// The endpoint's published configuration at `version`: three paths
/// rerouted every version, plus one destination that exists at that
/// version only — so every delta both changes and removes.
fn cfg(version: u64) -> EndpointConfig {
    if version == 0 {
        return EndpointConfig::default();
    }
    let mut paths: Vec<([u8; 4], Vec<u32>)> = (0..3u8)
        .map(|i| ([10, 0, 0, i], vec![version as u32, u32::from(i)]))
        .collect();
    paths.push(([10, 0, 1, version as u8], vec![7]));
    EndpointConfig { paths }
}

fn delta(version: u64) -> ConfigDelta {
    diff_configs(&cfg(version - 1), &cfg(version))
}

fn changelog(complete_since: u64, versions: &[u64]) -> PullRead {
    PullRead::Value(
        Changelog {
            complete_since,
            versions: versions.to_vec(),
        }
        .encode(),
    )
}

fn delta_read(version: u64) -> PullRead {
    PullRead::Value(encode_delta(&delta(version)).unwrap())
}

fn snapshot_read(stamp: u64) -> PullRead {
    let mut raw = stamp.to_be_bytes().to_vec();
    raw.extend(encode_paths(&cfg(stamp)).unwrap());
    PullRead::Value(raw)
}

/// Bytes no record codec accepts.
fn garbage() -> PullRead {
    PullRead::Value(vec![0xff; 5])
}

/// Feeds `script` to a fresh ladder, asserting it asks for exactly the
/// scripted keys in order, and returns where it ends.
fn run(local: u64, target: u64, script: &[(TeKey, PullRead)]) -> PullStep {
    let (mut ladder, mut step) = PullLadder::start(EP, local, target);
    for (i, (key, read)) in script.iter().enumerate() {
        assert_eq!(step, PullStep::Read(*key), "read #{i}: wrong record asked");
        step = ladder.on_read(read.clone());
    }
    assert!(
        !matches!(step, PullStep::Read(_)),
        "script exhausted but the ladder still wants {step:?}"
    );
    step
}

/// The socket agent's install target: a bare [`EndpointConfig`].
struct Installed {
    config: EndpointConfig,
    version: u64,
    applied: Vec<u64>,
}

impl InstallTarget for Installed {
    fn install_base(&mut self, _stamp: u64, config: EndpointConfig) {
        self.config = config;
    }
    fn apply_delta(&mut self, version: u64, delta: &ConfigDelta) {
        self.applied.push(version);
        delta.apply(&mut self.config);
    }
    fn adopt(&mut self, version: u64) {
        self.version = version;
    }
}

/// What a case expects: `None` = retry (keep the working config),
/// else `(snapshot stamp, delta versions, achieved)`.
type Want = Option<(Option<u64>, &'static [u64], u64)>;

/// One table row: `(name, local, target, scripted reads, expectation)`.
type Case = (&'static str, u64, u64, Vec<(TeKey, PullRead)>, Want);

/// Checks the plan's shape, then applies it to an agent holding
/// `cfg(local)` and demands exactly the published config at `achieved`.
fn check(name: &str, local: u64, step: PullStep, want: Want) {
    let Some((base, deltas, achieved)) = want else {
        assert_eq!(
            step,
            PullStep::Retry,
            "{name}: must keep the working config"
        );
        return;
    };
    let PullStep::Done(plan) = step else {
        panic!("{name}: expected a plan, got {step:?}");
    };
    assert_eq!(plan.base.as_ref().map(|(s, _)| *s), base, "{name}: base");
    assert_eq!(plan.via_snapshot(), base.is_some(), "{name}: via_snapshot");
    let versions: Vec<u64> = plan.deltas.iter().map(|(v, _)| *v).collect();
    assert_eq!(versions, deltas, "{name}: delta chain");
    assert_eq!(plan.achieved, achieved, "{name}: achieved");
    assert!(achieved > local, "{name}: a plan always advances");

    let mut agent = Installed {
        config: cfg(local),
        version: local,
        applied: Vec::new(),
    };
    plan.install(EP, false, &mut agent);
    assert_eq!(agent.version, achieved, "{name}: adopted version");
    assert_eq!(agent.applied, deltas, "{name}: deltas applied in order");
    // No base and no deltas: the changelog says nothing changed in
    // (local, achieved], so the installed paths must be untouched.
    let published = if base.is_none() && deltas.is_empty() {
        cfg(local)
    } else {
        cfg(achieved)
    };
    assert_eq!(
        agent.config, published,
        "{name}: installed config is not what was published at v{achieved}"
    );
}

#[test]
fn ladder_table() {
    let all = [1, 2, 3, 4, 5, 6];
    let cases: Vec<Case> = vec![
        (
            "never configured: missing changelog adopts the bare version",
            0,
            5,
            vec![(CHANGELOG, PullRead::Missing)],
            Some((None, &[], 5)),
        ),
        (
            "changelog outage",
            2,
            5,
            vec![(CHANGELOG, PullRead::Failed)],
            None,
        ),
        (
            "undecodable changelog",
            2,
            5,
            vec![(CHANGELOG, garbage())],
            None,
        ),
        (
            "complete delta chain stops at the target",
            2,
            5,
            vec![
                (CHANGELOG, changelog(1, &all)),
                (delta_key(3), delta_read(3)),
                (delta_key(4), delta_read(4)),
                (delta_key(5), delta_read(5)),
            ],
            Some((None, &[3, 4, 5], 5)),
        ),
        (
            "no change in (local, target]: adopt the version, touch nothing",
            3,
            5,
            vec![(CHANGELOG, changelog(0, &[1, 3, 6]))],
            Some((None, &[], 5)),
        ),
        (
            "history GC'd past the agent: straight to snapshot + replay",
            1,
            6,
            vec![
                (CHANGELOG, changelog(3, &[4, 5, 6])),
                (SNAPSHOT, snapshot_read(4)),
                (delta_key(5), delta_read(5)),
                (delta_key(6), delta_read(6)),
            ],
            Some((Some(4), &[5, 6], 6)),
        ),
        (
            "degraded agent (local 0) rebuilds via snapshot",
            0,
            5,
            vec![
                (CHANGELOG, changelog(2, &[3, 4, 5])),
                (SNAPSHOT, snapshot_read(5)),
            ],
            Some((Some(5), &[], 5)),
        ),
        (
            "replay stops at the last readable delta: achieved < target",
            1,
            6,
            vec![
                (CHANGELOG, changelog(3, &[4, 5, 6])),
                (SNAPSHOT, snapshot_read(4)),
                (delta_key(5), delta_read(5)),
                (delta_key(6), PullRead::Failed),
            ],
            Some((Some(4), &[5], 5)),
        ),
        (
            "replay's first delta unreadable: the snapshot alone still advances",
            1,
            6,
            vec![
                (CHANGELOG, changelog(3, &[4, 5, 6])),
                (SNAPSHOT, snapshot_read(4)),
                (delta_key(5), garbage()),
            ],
            Some((Some(4), &[], 4)),
        ),
        (
            "achieved <= local: keep the working config",
            4,
            6,
            vec![
                (CHANGELOG, changelog(5, &[6])),
                (SNAPSHOT, snapshot_read(4)),
                (delta_key(6), PullRead::Missing),
            ],
            None,
        ),
        (
            "snapshot older than local and nothing to replay past it",
            4,
            6,
            vec![
                (CHANGELOG, changelog(5, &[6])),
                (SNAPSHOT, snapshot_read(3)),
                (delta_key(6), PullRead::Failed),
            ],
            None,
        ),
        (
            "short snapshot (< 8 bytes)",
            0,
            5,
            vec![
                (CHANGELOG, changelog(2, &[3, 4, 5])),
                (SNAPSHOT, PullRead::Value(vec![0, 0, 0])),
            ],
            None,
        ),
        (
            "undecodable snapshot body",
            0,
            5,
            vec![
                (CHANGELOG, changelog(2, &[3, 4, 5])),
                (
                    SNAPSHOT,
                    PullRead::Value([5u64.to_be_bytes().as_slice(), &[0xff; 3]].concat()),
                ),
            ],
            None,
        ),
        (
            "missing snapshot",
            0,
            5,
            vec![
                (CHANGELOG, changelog(2, &[3, 4, 5])),
                (SNAPSHOT, PullRead::Missing),
            ],
            None,
        ),
        (
            "snapshot outage",
            0,
            5,
            vec![
                (CHANGELOG, changelog(2, &[3, 4, 5])),
                (SNAPSHOT, PullRead::Failed),
            ],
            None,
        ),
    ];
    for (name, local, target, script, want) in cases {
        check(name, local, run(local, target, &script), want);
    }
}

#[test]
fn unreadable_delta_at_every_position_falls_back_to_snapshot() {
    // local 1 → target 5 needs deltas 2, 3, 4, 5. Break each one in
    // each way; the already-fetched prefix must be discarded and the
    // agent rebuilt from the snapshot at 3 plus replay.
    let chain = [2u64, 3, 4, 5];
    let breakages = [
        ("missing", PullRead::Missing),
        ("failed", PullRead::Failed),
        ("undecodable", garbage()),
    ];
    for pos in 0..chain.len() {
        for (how, broken) in &breakages {
            let mut script = vec![(CHANGELOG, changelog(0, &[1, 2, 3, 4, 5, 6]))];
            for &v in &chain[..pos] {
                script.push((delta_key(v), delta_read(v)));
            }
            script.push((delta_key(chain[pos]), broken.clone()));
            script.push((SNAPSHOT, snapshot_read(3)));
            script.push((delta_key(4), delta_read(4)));
            script.push((delta_key(5), delta_read(5)));
            check(
                &format!("delta {} {how}", chain[pos]),
                1,
                run(1, 5, &script),
                Some((Some(3), &[4, 5], 5)),
            );
        }
    }
}
