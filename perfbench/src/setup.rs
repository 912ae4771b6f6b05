//! Set-up: train the SDNet every workload serves, then build and warm the
//! workload's solver. Set-up runs several times per process so `setup_s`
//! is a median, and every repetition must train bitwise-identical
//! parameters.

use mf_nn::SdNet;
use std::time::Instant;

/// Training recipe, the same as `mosaic-flow train`'s architecture
/// (m = 9, conv [4], hidden [48, 48, 48]) at a size that trains in a
/// few seconds.
pub const TRAIN_SAMPLES: usize = 100;
/// Training epochs.
pub const TRAIN_EPOCHS: usize = 20;
/// Training seed: fixed, so every run and every commit serves the same
/// model (iteration counts depend on it).
pub const TRAIN_SEED: u64 = 0;
/// Set-ups per process; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Train the benchmark's SDNet.
pub fn train() -> SdNet {
    mf_bench::train_sdnet(
        mf_bench::bench_spec(),
        TRAIN_SAMPLES,
        TRAIN_EPOCHS,
        TRAIN_SEED,
    )
    .0
}

/// The serialized model file: equal bytes mean identical parameters.
pub fn model_bytes(net: &SdNet) -> Vec<u8> {
    let mut buf = Vec::new();
    net.save_to(&mut buf).expect("serialize into memory");
    buf
}

/// Timings of the repeated set-up.
#[derive(Clone, Debug, Default)]
pub struct SetupReport {
    /// Start (process start for the first) to ready, per repetition.
    pub setup_s: Vec<f64>,
    /// Training time per repetition.
    pub train_s: Vec<f64>,
    /// Build-and-warm time per repetition.
    pub warm_s: Vec<f64>,
    /// Whether every repetition trained byte-identical model files.
    pub identical: bool,
}

/// Run set-up [`SETUPS`] times: train, then `ready` builds and warms the
/// workload's system from the trained net. The first repetition is
/// timed from `process_start`. Returns the last repetition's system and
/// net; earlier systems are dropped outside the timed regions.
pub fn repeated<T>(
    process_start: Instant,
    mut ready: impl FnMut(SdNet) -> T,
) -> (T, SdNet, SetupReport) {
    let mut report = SetupReport {
        identical: true,
        ..Default::default()
    };
    let mut first_bytes: Option<Vec<u8>> = None;
    let mut last: Option<(T, SdNet)> = None;
    for rep in 0..SETUPS {
        // Tear down the previous repetition before timing the next.
        drop(last.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let t_train = Instant::now();
        let net = train();
        let t_warm = Instant::now();
        let system = ready(net.clone());
        let done = Instant::now();
        report.setup_s.push((done - t0).as_secs_f64());
        report.train_s.push((t_warm - t_train).as_secs_f64());
        report.warm_s.push((done - t_warm).as_secs_f64());
        let bytes = model_bytes(&net);
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(b) => report.identical &= *b == bytes,
        }
        last = Some((system, net));
    }
    let (system, net) = last.expect("SETUPS > 0");
    (system, net, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_setups_train_identical_parameters() {
        let a = train();
        let b = train();
        assert_eq!(model_bytes(&a), model_bytes(&b));
        assert_eq!(a.params.len(), b.params.len());
        for ((na, x), (nb, y)) in a.params.iter().zip(b.params.iter()) {
            assert_eq!(na, nb);
            let (xs, ys) = (x.as_slice(), y.as_slice());
            assert!(
                xs.iter().zip(ys).all(|(u, v)| u.to_bits() == v.to_bits()),
                "{na}"
            );
        }
    }
}
