//! Criterion: TE database query throughput — the §3.2 claim that the
//! customized store sustains high concurrent query rates and scales
//! linearly with shards (paper: 160k qps on two shards).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use megate_tedb::{TeDatabase, TeKey};

fn snapshot(endpoint: u64) -> TeKey {
    TeKey::Snapshot { endpoint }
}

fn bench_single_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("tedb_single_thread");
    for &shards in &[1usize, 2, 4] {
        let db = TeDatabase::new(shards);
        for i in 0..10_000 {
            db.put(&snapshot(i), vec![0u8; 64]);
        }
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("get", shards), &db, |b, db| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 10_000;
                db.fetch(&snapshot(i))
            })
        });
    }
    group.finish();
}

fn bench_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("tedb_concurrent");
    group.sample_size(10);
    for &threads in &[2u64, 8] {
        let db = TeDatabase::new(2);
        for i in 0..10_000 {
            db.put(&snapshot(i), vec![0u8; 64]);
        }
        // Measure 100k queries spread over N client threads.
        group.throughput(Throughput::Elements(100_000));
        group.bench_with_input(BenchmarkId::new("get_100k", threads), &db, |b, db| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let db = db.clone();
                        s.spawn(move || {
                            for i in 0..(100_000 / threads) {
                                db.fetch(&snapshot((t * 31 + i) % 10_000));
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_thread, bench_concurrent);
criterion_main!(benches);
