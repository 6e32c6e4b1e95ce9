//! Striped accounting is exact: eight threads adding into one
//! [`StripedU64`] and recording into one [`Histogram`] leave exactly the
//! count, sum and buckets of the same work done on one thread.

use megate_obs::{Histogram, StripedU64};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 100_000;

/// The `i`-th value thread `t` adds: spread over many buckets, with
/// some large enough to exercise the wrapping sum.
fn value(t: u64, i: u64) -> u64 {
    let x = (t * PER_THREAD + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x >> (x % 61)
}

#[test]
fn striped_sum_is_the_sequential_sum() {
    let striped = StripedU64::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let striped = &striped;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    striped.add(value(t, i));
                }
            });
        }
    });
    let sequential = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| value(t, i)))
        .fold(0u64, u64::wrapping_add);
    assert_eq!(striped.get(), sequential);
    striped.reset();
    assert_eq!(striped.get(), 0);
}

#[cfg(not(feature = "disabled"))]
#[test]
fn striped_histogram_is_the_sequential_histogram() {
    let shared = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = shared.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    shared.record(value(t, i));
                }
            });
        }
    });
    let sequential = Histogram::new();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            sequential.record(value(t, i));
        }
    }
    let (got, want) = (shared.snapshot(), sequential.snapshot());
    assert_eq!(got.count, THREADS * PER_THREAD);
    assert_eq!(got.count, want.count);
    assert_eq!(got.sum, want.sum);
    assert_eq!(got.buckets, want.buckets);
}
