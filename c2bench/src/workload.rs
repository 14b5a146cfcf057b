//! The two workloads. Each run follows one calibration through the life
//! of a C² deployment. Set-up generates the data and builds and publishes
//! the first epoch; then the run repeats whole cycles until `--seconds`
//! have passed. A cycle builds the graph with every executor and with LSH,
//! has a replica adopt the published epoch and serve a closed-loop read
//! burst, and has a writer absorb an open-loop insert round under epoch
//! rebuilds while a reader queries, ending in publish→adopt hand-offs.
//! Cycling spreads every metric's samples over the whole run, so a slow
//! spell of the host moves all of them a little instead of one a lot.

use crate::checks::{
    answer_violation, first_difference, graph_violations, sorted_lists, Ledger, Op,
};
use crate::oracle::{exhaustive_top, fingerprint_estimate, recall, QualityOracle};
use crate::trace::Tracer;
use crate::util::{quantile, sorted, ScratchDir};
use cnc_baselines::{BuildContext, KnnAlgorithm, Lsh};
use cnc_core::{BuildPlan, C2Config, ClusterAndConquer};
use cnc_dataset::zipf::Zipf;
use cnc_dataset::{Dataset, DatasetProfile};
use cnc_distrib::{DistribConfig, DistribRuntime, Transport};
use cnc_graph::KnnGraph;
use cnc_query::BeamSearchConfig;
use cnc_runtime::{Runtime, RuntimeConfig};
use cnc_serve::{
    AdoptedSnapshot, ServingConfig, ServingEngine, Snapshot, SnapshotAdopter, SnapshotPublisher,
};
use cnc_similarity::kernel::{pairwise, ClusterTile};
use cnc_similarity::{GoldFinger, SimilarityBackend, SimilarityData};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads every executor and the load generator may use (`nproc` of the
/// reference host).
const THREADS: usize = 2;
/// Graph degree and answer size (paper: k = 30; top-10 queries).
const K: usize = 30;
const TOP: usize = 10;
/// Users in the Eq. 2 sample.
const QUALITY_SAMPLE: usize = 256;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Minimum cycles per run, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Adoptions of the base snapshot per cycle.
const ADOPTS: usize = 20;
/// Queries per closed-loop client per cycle.
const READS: usize = 12_000;
/// Publish→adopt hand-offs at the end of every write round.
const HANDOFFS: usize = 8;
/// Users held out of the served epoch: the query pool and the insert
/// stream of every write round.
const POOL: usize = 400;
/// Open-loop insert rate (1/s) and the rebuild interval in inserts. A
/// rebuild of the served epoch takes 0.15-0.2 s, so about 5% of the
/// inserts wait behind one: clearly above 1%, well below saturation.
const INSERT_RATE: f64 = 150.0;
const REBUILD_AFTER: usize = 200;
/// Open-loop query rate of the write round's reader (1/s).
const QUERY_RATE: f64 = 300.0;
/// Zipf exponent of the closed-loop read stream over the held-out pool.
/// An assumption, not measured traffic: 0.99 is the request-skew constant
/// of the YCSB zipfian generator (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010). No query trace is at hand to
/// derive it from.
const ZIPF_EXPONENT: f64 = 0.99;
/// Every n-th closed-loop answer also has its similarities recomputed.
const SIM_CHECK_EVERY: usize = 16;
/// Seed of the calibration datasets, the held-out pool (its members, their
/// insert order and Zipf ranking) and the C² hash functions. They stay
/// fixed so that the work a build or a rebuild does is the same on every
/// run: across dataset and hash seeds, the dense build's comparison count
/// ranges from 5.5 M to 13.4 M and its time with it. The run's `--seed`
/// drives the traffic: the query streams and the seeds of every query and
/// insert call made under load.
const CALIBRATION_SEED: u64 = 1;

/// One dataset calibration and the traffic run against it.
pub struct Calibration {
    pub name: &'static str,
    profile: DatasetProfile,
    /// Scale of the dataset the build stage runs on.
    scale: f64,
    /// Scale of the dataset served by the read and write stages. It is
    /// smaller than the build's so that an epoch rebuild stalls inserts
    /// for well under a second and a run sees several rebuilds.
    serve_scale: f64,
    /// FastRandomHash functions (paper: 8; 15 on DBLP and Gowalla).
    t: usize,
}

pub const CALIBRATIONS: [Calibration; 2] = [
    Calibration {
        name: "dense",
        profile: DatasetProfile::MovieLens10M,
        scale: 0.1,
        serve_scale: 0.05,
        t: 8,
    },
    Calibration {
        name: "sparse",
        profile: DatasetProfile::Dblp,
        scale: 0.5,
        serve_scale: 0.25,
        t: 15,
    },
];

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Everything set-up produces.
struct Inputs {
    /// The build stage's dataset.
    dataset: Dataset,
    /// The served dataset minus the held-out pool.
    base: Dataset,
    /// Held-out profiles in insert order; also the query pool.
    pool: Vec<Vec<u32>>,
    /// GoldFinger fingerprints of the pool profiles.
    pool_fps: Vec<Vec<u64>>,
    quality: QualityOracle,
    /// Exhaustive top-10 of every pool query on the base epoch.
    base_truth: Vec<Vec<(u32, f64)>>,
    /// The base epoch's v2 snapshot.
    snapshot: PathBuf,
    config: ServingConfig,
}

fn serving_config(cal: &Calibration) -> ServingConfig {
    let seed = C2Config::default().seed;
    ServingConfig {
        c2: C2Config {
            k: K,
            t: cal.t,
            max_cluster_size: 2000,
            backend: SimilarityBackend::GoldFinger { bits: 1024, seed: seed ^ 0x601D },
            threads: THREADS,
            seed,
            ..C2Config::default()
        },
        runtime: RuntimeConfig {
            workers: THREADS,
            reduce_shards: THREADS,
            ..RuntimeConfig::default()
        },
        beam: BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 },
        rebuild_after: REBUILD_AFTER,
        ..ServingConfig::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Samples gathered across set-ups and cycles, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name).or_default().extend(values);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn quantile(&self, name: &str, p: f64) -> f64 {
        quantile(&sorted(self.get(name).to_vec()), p)
    }
}

// ── Set-up ────────────────────────────────────────────────────────────

fn setup(
    cal: &Calibration,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Inputs, String> {
    let mut samples = Samples::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let root = tracer.span("setup", 0);
        let start = Instant::now();
        let span = tracer.span("dataset.generate", root.id());
        let dataset = cal.profile.generate(cal.scale, CALIBRATION_SEED);
        let served = cal.profile.generate(cal.serve_scale, CALIBRATION_SEED);
        let mut rng = SmallRng::seed_from_u64(CALIBRATION_SEED ^ 0x9001);
        let mut order: Vec<u32> = served.users().collect();
        order.shuffle(&mut rng);
        let held: Vec<u32> = order[..POOL].to_vec();
        let mut is_held = vec![false; served.num_users()];
        for &u in &held {
            is_held[u as usize] = true;
        }
        let base = Dataset::from_profiles(
            served.iter().filter(|(u, _)| !is_held[*u as usize]).map(|(_, p)| p.to_vec()).collect(),
            served.num_items() as u32,
        );
        let pool: Vec<Vec<u32>> = held.iter().map(|&u| served.profile(u).to_vec()).collect();
        samples.push("dataset.generate_s", secs(span.end()));

        let span = tracer.span("oracle.quality", root.id());
        let mut sample: Vec<u32> = dataset.users().collect();
        sample.shuffle(&mut rng);
        sample.truncate(QUALITY_SAMPLE);
        let quality = QualityOracle::new(&dataset, sample, K, THREADS);
        samples.push("oracle.quality_s", secs(span.end()));

        let config = serving_config(cal);
        let span = tracer.span("serve.initial_epoch", root.id());
        let engine = ServingEngine::build(base.clone(), config);
        let snapshot = dir.join("base.snap");
        engine.write_snapshot(&snapshot).map_err(|e| format!("base snapshot: {e}"))?;
        drop(span);

        let span = tracer.span("oracle.recall", root.id());
        let epoch = engine.current_epoch();
        let gf = epoch.fingerprints().ok_or("serving epoch has no fingerprints")?;
        let pool_fps: Vec<Vec<u64>> = pool.iter().map(|p| gf.fingerprint_profile(p)).collect();
        let base_truth = truth_for(gf, &pool_fps);
        samples.push("oracle.recall_s", secs(span.end()));
        samples.push("setup_s", secs(start.elapsed()));
        inputs =
            Some(Inputs { dataset, base, pool, pool_fps, quality, base_truth, snapshot, config });
    }
    for name in ["setup_s", "dataset.generate_s", "oracle.quality_s", "oracle.recall_s"] {
        out.set(name, samples.quantile(name, 0.5));
    }
    Ok(inputs.expect("at least one set-up repetition"))
}

/// Exhaustive top-10 of every query fingerprint under `gf`, on 2 threads.
fn truth_for(gf: &GoldFinger, queries: &[Vec<u64>]) -> Vec<Vec<(u32, f64)>> {
    let chunk = queries.len().div_ceil(THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|q| exhaustive_top(gf.words(), gf.words_per_user(), q, TOP))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    })
}

// ── The run ───────────────────────────────────────────────────────────

/// The state one run carries from cycle to cycle.
struct Run<'a> {
    inputs: &'a Inputs,
    seed: u64,
    tracer: &'a Tracer,
    scratch: &'a Path,
    builder: ClusterAndConquer,
    runtime: Runtime,
    distrib: DistribRuntime,
    lsh: Lsh,
    /// The read replica, serving the base epoch through mmap adoption.
    replica: ServingEngine,
    /// The C² graph of the first cycle, in canonical form.
    reference: Option<Vec<Vec<(u32, u32)>>>,
    samples: Samples,
    out: Outcome,
}

/// Runs one workload: set-up, then whole cycles until `seconds` passed.
pub fn run(
    cal: &Calibration,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ScratchDir::create(scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let inputs = setup(cal, tracer, dir.path(), &mut out)?;
    let config = inputs.config;
    let mut run = Run {
        inputs: &inputs,
        seed,
        tracer,
        scratch: dir.path(),
        builder: ClusterAndConquer::new(config.c2),
        runtime: Runtime::new(config.runtime),
        distrib: DistribRuntime::new(DistribConfig {
            processes: THREADS,
            reduce_shards: THREADS,
            transport: Transport::Pipe,
            ..DistribConfig::default()
        }),
        lsh: Lsh::default(),
        replica: replica(&inputs.snapshot, config)?,
        reference: None,
        samples: Samples::default(),
        out,
    };
    run.mmap_matches_copy()?;
    // Untimed warm-up of the build and read paths.
    black_box(run.builder.build(&inputs.dataset));
    run.read_burst(usize::MAX, READS / 4);

    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || secs(start.elapsed()) < seconds {
        warm_cores();
        run.build_round(cycle);
        run.adopt_burst();
        run.read_burst(cycle, READS);
        run.write_round(cycle)?;
        cycle += 1;
    }
    run.finish();
    Ok(run.out)
}

impl Run<'_> {
    // ── Builds ────────────────────────────────────────────────────────

    fn build_round(&mut self, cycle: usize) {
        let (ds, c2, tracer) = (&self.inputs.dataset, self.inputs.config.c2, self.tracer);
        let root = tracer.span("build.round", 0);
        // ClusterAndConquer::build, GoldFinger construction included.
        let span = tracer.span("c2.build", root.id());
        let c2r = self.builder.build(ds);
        self.samples.push("build_s", secs(span.end()));

        let span = tracer.span("runtime.execute", root.id());
        let rt = self.runtime.execute(ds, &c2);
        self.samples.push("build_runtime_s", secs(span.end()));

        let span = tracer.span("distrib.execute", root.id());
        let dist = self.distrib.execute(ds, &c2);
        let dist_s = secs(span.end());

        let span = tracer.span("lsh.build", root.id());
        let sim = SimilarityData::build_parallel(c2.backend, ds, THREADS);
        let ctx = BuildContext { dataset: ds, sim: &sim, k: K, threads: THREADS, seed: c2.seed };
        let lsh_graph = self.lsh.build(&ctx);
        self.samples.push("lsh_s", secs(span.end()));
        drop(root);
        let ledger = &mut self.out.ledger;
        ledger.attempt(Op::Build, 4);

        // Checks, outside the timed calls.
        let lists = sorted_lists(&c2r.graph);
        let reference = self.reference.get_or_insert_with(|| lists.clone());
        ledger.check(first_difference(reference, &lists).is_none(), || {
            format!("cycle {cycle}: ClusterAndConquer::build differs from cycle 0")
        });
        ledger.check(first_difference(&lists, &sorted_lists(&rt.graph)).is_none(), || {
            format!("cycle {cycle}: Runtime::execute graph differs from ClusterAndConquer::build")
        });
        ledger.check(rt.report.comparisons == c2r.stats.comparisons, || {
            format!(
                "runtime comparisons {} != build comparisons {}",
                rt.report.comparisons, c2r.stats.comparisons
            )
        });
        match &dist {
            Ok(d) => {
                self.samples.push("build_distrib_s", dist_s);
                ledger.check(first_difference(&lists, &sorted_lists(&d.graph)).is_none(), || {
                    format!(
                        "cycle {cycle}: DistribRuntime graph differs from ClusterAndConquer::build"
                    )
                });
                ledger.check(d.report.comparisons == c2r.stats.comparisons, || {
                    format!(
                        "distrib comparisons {} != build comparisons {}",
                        d.report.comparisons, c2r.stats.comparisons
                    )
                });
            }
            Err(e) => {
                ledger.fail(Op::Build, 1);
                eprintln!("c2bench: distributed build failed: {e}");
            }
        }

        if cycle == 0 {
            let gf = sim.goldfinger().expect("GoldFinger backend");
            let (short, bad) = graph_violations(&c2r.graph, gf);
            ledger.check(bad.is_empty(), || format!("C2 graph: {}", bad.join("; ")));
            let out = &mut self.out;
            out.set("core.short_lists", short as f64);
            out.set("quality", self.inputs.quality.quality(ds, &c2r.graph));
            out.set("baselines.lsh_quality", self.inputs.quality.quality(ds, &lsh_graph));
            out.set("baselines.lsh_comparisons", sim.comparisons() as f64);
            let sizes = &c2r.stats.cluster_sizes_desc;
            out.set("core.clusters", sizes.len() as f64);
            out.set("core.singletons", sizes.iter().filter(|&&s| s == 1).count() as f64);
            out.set("core.max_cluster", sizes.first().copied().unwrap_or(0) as f64);
            out.set("similarity.comparisons", c2r.stats.comparisons as f64);
            out.set("runtime.shuffle_entries", rt.report.shuffle_entries as f64);
            out.set("runtime.stolen_clusters", rt.report.stolen_clusters() as f64);
            if let Ok(d) = &dist {
                out.set("distrib.comparisons", d.report.comparisons as f64);
            }
        }
        let s = &mut self.samples;
        let local = secs(c2r.stats.timings.local_knn);
        s.push("core.local_knn_s", local);
        s.push("similarity.solve_mcmp_s", c2r.stats.comparisons as f64 / local / 1e6);
        s.push("runtime.map_makespan_s", secs(rt.report.measured_makespan()));
        s.push("runtime.map_busy_s", secs(rt.report.total_busy()));
        s.push("runtime.map_imbalance", rt.report.measured_imbalance());
        s.push("runtime.reduce_busy_s", secs(rt.report.total_reduce_busy()));
        if let Ok(d) = &dist {
            s.push("distrib.wall_s", secs(d.report.wall));
            let busy: u64 = d.report.workers.iter().filter_map(|w| w.wire.map(|x| x.busy_ns)).sum();
            s.push("distrib.worker_busy_s", busy as f64 / 1e9);
            s.push("distrib.transport_retries", d.report.transport_retries as f64);
        }

        if tracer.on() {
            self.traced_build();
            if cycle == 0 {
                self.kernel_ceiling();
            }
        }
    }

    /// The same C² build decomposed into its public calls: fingerprints by
    /// `SimilarityData::build_parallel`, then `ClusterAndConquer::build_with`,
    /// whose stats split assignment from the local KNN solve.
    fn traced_build(&mut self) {
        let (ds, c2, tracer) = (&self.inputs.dataset, self.inputs.config.c2, self.tracer);
        let root = tracer.span("c2.build.traced", 0);
        let span = tracer.span("similarity.goldfinger", root.id());
        let sim = SimilarityData::build_parallel(c2.backend, ds, THREADS);
        self.samples.push("similarity.goldfinger_s", secs(span.end()));
        let span = tracer.span("core.build_with", root.id());
        let at = span.start();
        let result = self.builder.build_with(ds, &sim);
        let with = span.id();
        drop(span);
        let timings = result.stats.timings;
        tracer.record("core.assign", with, at, timings.clustering);
        tracer.record("core.local_knn", with, at + timings.clustering, timings.local_knn);
        self.samples.push("trace.build_s", secs(root.end()));
        self.samples.push("core.assign_s", secs(timings.clustering));
        self.samples.push("trace.local_knn_s", secs(timings.local_knn));

        let span = tracer.span("baselines.lsh_buckets", 0);
        let ctx = BuildContext { dataset: ds, sim: &sim, k: K, threads: THREADS, seed: c2.seed };
        black_box(self.lsh.build_buckets(&ctx));
        self.samples.push("baselines.lsh_buckets_s", secs(span.end()));
    }

    /// The public GoldFinger-1024 pairwise sweep over one largest cluster:
    /// a ceiling for the solve rate of the build's local KNN step.
    fn kernel_ceiling(&mut self) {
        let (ds, c2) = (&self.inputs.dataset, self.inputs.config.c2);
        let plan = BuildPlan::assign(&c2, ds);
        let Some(users) = plan.clusters().iter().max_by_key(|c| c.len()) else {
            return;
        };
        let sim = SimilarityData::build_parallel(c2.backend, ds, THREADS);
        let tile = ClusterTile::gather(sim.goldfinger().expect("GoldFinger backend"), users);
        let kernel = tile.kernel::<16>();
        let n = users.len() as f64;
        for _ in 0..3 {
            let span = self.tracer.span("similarity.kernel_sweep", 0);
            let mut acc = 0.0f32;
            pairwise(&kernel, |_, _, s| acc += s);
            black_box(acc);
            let rate = n * (n - 1.0) / 2.0 / secs(span.end()) / 1e6;
            self.samples.push("similarity.kernel_mcmp_s", rate);
        }
    }

    // ── Replica: adoption and closed-loop reads ───────────────────────

    /// Answers from the mmap-adopted epoch against answers from a copied
    /// load of the same snapshot.
    fn mmap_matches_copy(&mut self) -> Result<(), String> {
        let snapshot = &self.inputs.snapshot;
        let span = self.tracer.span("serve.copy_load", 0);
        let copied =
            AdoptedSnapshot::load_copied(snapshot).map_err(|e| format!("copy load: {e}"))?;
        self.out.set("serve.copy_load_ms", secs(span.end()) * 1e3);
        let copy_engine = ServingEngine::from_parts(
            copied.dataset,
            copied.graph,
            copied.goldfinger.map(Arc::new),
            self.inputs.config,
        );
        let same =
            answers(&self.replica, &self.inputs.pool) == answers(&copy_engine, &self.inputs.pool);
        self.out.ledger.check(same, || {
            "answers from the mmap-adopted epoch differ from the copied load".into()
        });
        Ok(())
    }

    /// Repeated adoption of the same published epoch by the replica.
    fn adopt_burst(&mut self) {
        let tracer = self.tracer;
        for _ in 0..ADOPTS {
            self.out.ledger.attempt(Op::Adopt, 1);
            let root = tracer.span("serve.adopt", 0);
            let span = tracer.span("serve.adopt_open", root.id());
            let opened = AdoptedSnapshot::open(&self.inputs.snapshot);
            let open = span.end();
            match opened {
                Ok(adopted) => {
                    if !adopted.mapped {
                        self.samples.push("serve.copied", 1.0);
                    }
                    let span = tracer.span("serve.adopt_swap", root.id());
                    self.replica.adopt(adopted);
                    self.samples.push("serve.adopt_swap_us", secs(span.end()) * 1e6);
                    self.samples.push("serve.adopt_open_ms", secs(open) * 1e3);
                    self.samples.push("adopt_ms", secs(root.end()) * 1e3);
                }
                Err(e) => {
                    self.out.ledger.fail(Op::Adopt, 1);
                    eprintln!("c2bench: adoption failed: {e}");
                }
            }
        }
    }

    /// `per_client` Zipf-skewed queries from each of 2 closed-loop clients;
    /// `cycle == usize::MAX` is the untimed warm-up.
    fn read_burst(&mut self, cycle: usize, per_client: usize) {
        let inputs = self.inputs;
        let zipf = Zipf::new(inputs.pool.len(), ZIPF_EXPONENT);
        let epoch = self.replica.current_epoch();
        let gf = epoch.fingerprints().expect("GoldFinger epoch");
        let replica = &self.replica;
        let seed = self.seed ^ 0x5EAD ^ ((cycle as u64) << 40);
        let start = Instant::now();
        let per_client: Vec<(Vec<f64>, u64, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|client| {
                    let zipf = &zipf;
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ ((client as u64) << 32));
                        let mut session = replica.session();
                        let mut lat = Vec::with_capacity(per_client);
                        let mut short = 0;
                        let mut bad = Vec::new();
                        for op in 0..per_client {
                            let q = zipf.sample(&mut rng) as usize;
                            let t0 = Instant::now();
                            let result = replica.query_with(
                                &mut session,
                                &inputs.pool[q],
                                TOP,
                                rng.next_u64(),
                            );
                            lat.push(secs(t0.elapsed()) * 1e6);
                            if result.neighbors.len() < TOP {
                                short += 1;
                                continue;
                            }
                            let sims = (op % SIM_CHECK_EVERY == 0)
                                .then(|| (&**gf, inputs.pool_fps[q].as_slice()));
                            if let Some(v) = answer_violation(&result.neighbors, TOP, sims) {
                                if bad.len() < 3 {
                                    bad.push(format!("query {q}: {v}"));
                                }
                            }
                        }
                        (lat, short, bad)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let elapsed = secs(start.elapsed());
        if cycle == usize::MAX {
            return;
        }
        let mut burst = Vec::new();
        for (lat, short, bad) in per_client {
            self.out.ledger.attempt(Op::Query, lat.len() as u64);
            self.out.ledger.fail(Op::Query, short);
            for b in bad {
                self.out.ledger.check(false, || b);
            }
            burst.extend(lat);
        }
        self.samples.push("read_qps", burst.len() as f64 / elapsed);
        let burst = sorted(burst);
        self.samples.push("query_p99_us", quantile(&burst, 0.99));
        self.samples.extend("query_us", burst);
    }

    // ── Writer: open-loop inserts under rebuilds ──────────────────────

    fn write_round(&mut self, cycle: usize) -> Result<(), String> {
        let (inputs, seed, tracer) = (self.inputs, self.seed, self.tracer);
        let config = inputs.config;
        let inserts = inputs.pool.len();
        let queries = (inserts as f64 / INSERT_RATE * QUERY_RATE) as usize;
        let snapshot = Snapshot::load(&inputs.snapshot).map_err(|e| format!("load base: {e}"))?;
        let writer = ServingEngine::from_snapshot(snapshot, config);
        let follower = replica(&inputs.snapshot, config)?;

        let t0 = Instant::now() + Duration::from_millis(5);
        let root = tracer.span("write.round", 0);
        let round_seed = seed ^ ((cycle as u64) << 40);
        let (ins, qry) = std::thread::scope(|scope| {
            let writer = &writer;
            let w = scope.spawn(move || {
                let mut rows = Vec::with_capacity(inserts);
                for (i, profile) in inputs.pool.iter().enumerate() {
                    let due = t0 + Duration::from_secs_f64(i as f64 / INSERT_RATE);
                    let late = wait_until(due);
                    let begin = Instant::now();
                    let outcome = writer.insert(profile.clone(), round_seed ^ i as u64);
                    let end = Instant::now();
                    if outcome.published.is_some() {
                        tracer.record("serve.publishing_insert", 0, begin, end - begin);
                    }
                    let due_publish = (i + 1) % REBUILD_AFTER == 0;
                    rows.push((due, begin, end, late, outcome.published.is_some(), due_publish));
                }
                rows
            });
            let r = scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(round_seed ^ 0x0E4D);
                let mut session = writer.session();
                let mut rows = Vec::with_capacity(queries);
                for j in 0..queries {
                    let due = t0 + Duration::from_secs_f64(j as f64 / QUERY_RATE);
                    let late = wait_until(due);
                    let q = rng.random_range(0..inputs.pool.len());
                    let begin = Instant::now();
                    let result =
                        writer.query_with(&mut session, &inputs.pool[q], TOP, rng.next_u64());
                    let end = Instant::now();
                    let full = result.neighbors.len() == TOP;
                    let violation =
                        if full { answer_violation(&result.neighbors, TOP, None) } else { None };
                    rows.push((due, begin, end, late, full, violation));
                }
                rows
            });
            (w.join().expect("writer thread panicked"), r.join().expect("reader thread panicked"))
        });
        drop(root);

        let us = |a: Instant, b: Instant| secs(b.saturating_duration_since(a)) * 1e6;
        let round: Vec<f64> = ins.iter().map(|&(due, _, end, ..)| us(due, end)).collect();
        self.samples.push("insert_p99_us", quantile(&sorted(round), 0.99));
        let (s, ledger) = (&mut self.samples, &mut self.out.ledger);
        for &(due, begin, end, late, published, due_publish) in &ins {
            ledger.attempt(Op::Insert, 1);
            if due_publish && !published {
                ledger.fail(Op::Insert, 1);
            }
            s.push("insert_us", us(due, end));
            s.push("insert_wait_us", us(due, begin));
            s.push("insert_service_us", us(begin, end));
            if published {
                s.push("publish_ms", us(begin, end) / 1e3);
            }
            s.extend("lateness_us", late);
        }
        for (due, begin, end, late, full, violation) in qry {
            ledger.attempt(Op::Query, 1);
            if !full {
                ledger.fail(Op::Query, 1);
            }
            if let Some(v) = violation {
                ledger.check(false, || format!("write-stage query: {v}"));
            }
            s.push("write_query_us", us(due, end));
            s.push("query_wait_us", us(due, begin));
            s.push("query_service_us", us(begin, end));
            s.extend("lateness_us", late);
        }
        let history = writer.rebuild_history();
        for r in &history {
            s.push("serve.rebuild_ms", r.rebuild_ms);
            s.push("core.reuse_ratio", r.reuse_ratio);
            s.push("core.clusters_resolved", r.clusters_resolved as f64);
        }
        s.push("serve.epochs_published", history.len() as f64);

        self.handoffs(&writer, &follower)?;
        self.out
            .ledger
            .check(answers(&writer, &inputs.pool) == answers(&follower, &inputs.pool), || {
                format!("cycle {cycle}: the follower's answers differ from the writer's")
            });
        if cycle == 0 {
            self.final_epoch_checks(&writer)?;
        }
        Ok(())
    }

    /// Publish→adopt hand-offs of the writer's final epoch to a follower
    /// that watches the snapshot directory.
    fn handoffs(&mut self, writer: &ServingEngine, follower: &ServingEngine) -> Result<(), String> {
        let tracer = self.tracer;
        let dir = ScratchDir::create(self.scratch).map_err(|e| format!("scratch dir: {e}"))?;
        let mut publisher =
            SnapshotPublisher::open(dir.path()).map_err(|e| format!("publisher: {e}"))?;
        let mut adopter = SnapshotAdopter::new(dir.path());
        for _ in 0..HANDOFFS {
            let ledger = &mut self.out.ledger;
            ledger.attempt(Op::Publish, 1);
            ledger.attempt(Op::Adopt, 1);
            let root = tracer.span("serve.handoff", 0);
            let span = tracer.span("serve.snapshot_write", root.id());
            let published = publisher.publish(writer);
            self.samples.push("serve.snapshot_write_ms", secs(span.end()) * 1e3);
            let Ok((seq, path)) = published else {
                ledger.fail(Op::Publish, 1);
                ledger.fail(Op::Adopt, 1);
                continue;
            };
            let span = tracer.span("serve.poll_into", root.id());
            let adopted = adopter.poll_into(follower);
            drop(span);
            match adopted {
                Ok(Some(got)) if got == seq => {
                    self.samples.push("publish_adopt_ms", secs(root.end()) * 1e3)
                }
                _ => ledger.fail(Op::Adopt, 1),
            }
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            self.out.set("serve.snapshot_bytes", bytes as f64);
            let _ = publisher.prune(1);
        }
        Ok(())
    }

    /// Checks on the writer's final epoch: it equals a from-scratch build of
    /// the same dataset, its lists are sound, and its recall is recorded.
    /// The traced run also replays the base→final transition through the
    /// build plan against the base epoch's persisted cluster cache.
    fn final_epoch_checks(&mut self, writer: &ServingEngine) -> Result<(), String> {
        let (inputs, tracer) = (self.inputs, self.tracer);
        let epoch = writer.current_epoch();
        let c2 = inputs.config.c2;
        let scratch_graph: KnnGraph = ClusterAndConquer::new(c2).build(epoch.dataset()).graph;
        let out = &mut self.out;
        out.ledger.check(
            first_difference(&sorted_lists(epoch.graph()), &sorted_lists(&scratch_graph)).is_none(),
            || {
                "the final epoch's graph differs from a from-scratch ClusterAndConquer::build"
                    .into()
            },
        );
        let gf = epoch.fingerprints().ok_or("final epoch has no fingerprints")?;
        let (short, bad) = graph_violations(epoch.graph(), gf);
        out.ledger.check(bad.is_empty(), || format!("final epoch graph: {}", bad.join("; ")));
        out.set("serve.final_short_lists", short as f64);
        let fps: Vec<Vec<u64>> = inputs.pool.iter().map(|p| gf.fingerprint_profile(p)).collect();
        let truth = truth_for(gf, &fps);
        out.set("serve.final_recall_at_10", mean_recall(writer, &inputs.pool, &fps, &truth));

        if tracer.on() {
            let base = Snapshot::load(&inputs.snapshot).map_err(|e| format!("load base: {e}"))?;
            let cache = base.cache.ok_or("base snapshot carries no cluster cache")?;
            let ds = epoch.dataset();
            let inserted: Vec<u32> =
                (inputs.base.num_users() as u32..ds.num_users() as u32).collect();
            let mut plan = BuildPlan::assign(&c2, ds);
            let span = tracer.span("core.fingerprint", 0);
            plan.fingerprint(ds);
            out.set("core.fingerprint_s", secs(span.end()));
            let span = tracer.span("core.partition", 0);
            let part = plan.partition(&cache, &inserted);
            out.set("core.partition_s", secs(span.end()));
            black_box(part.dirty.len());
        }
        Ok(())
    }

    // ── Results ───────────────────────────────────────────────────────

    fn finish(&mut self) {
        let inputs = self.inputs;
        let recall_at_10 =
            mean_recall(&self.replica, &inputs.pool, &inputs.pool_fps, &inputs.base_truth);
        // The query layer called directly on the served epoch, one thread.
        let epoch = self.replica.current_epoch();
        let index = epoch.index();
        let mut comparisons = 0usize;
        for (i, p) in inputs.pool.iter().enumerate() {
            let t0 = Instant::now();
            let result = index.search(p, TOP, &inputs.config.beam, i as u64);
            self.samples.push("query.search_us", secs(t0.elapsed()) * 1e6);
            comparisons += result.comparisons;
        }

        let s = &self.samples;
        let out = &mut self.out;
        out.set("recall_at_10", recall_at_10);
        out.set("query.comparisons_per_query", comparisons as f64 / inputs.pool.len() as f64);
        out.set("query.search_us_p50", s.quantile("query.search_us", 0.5));
        for name in [
            "build_s",
            "build_runtime_s",
            "build_distrib_s",
            "lsh_s",
            "read_qps",
            "adopt_ms",
            "publish_ms",
            "publish_adopt_ms",
            "core.local_knn_s",
            "similarity.solve_mcmp_s",
            "similarity.kernel_mcmp_s",
            "similarity.goldfinger_s",
            "core.assign_s",
            "core.reuse_ratio",
            "core.clusters_resolved",
            "baselines.lsh_buckets_s",
            "runtime.map_makespan_s",
            "runtime.map_busy_s",
            "runtime.map_imbalance",
            "runtime.reduce_busy_s",
            "distrib.wall_s",
            "distrib.worker_busy_s",
            "distrib.transport_retries",
            "serve.adopt_open_ms",
            "serve.adopt_swap_us",
            "serve.rebuild_ms",
            "serve.epochs_published",
            "serve.snapshot_write_ms",
            "trace.build_s",
        ] {
            if !s.get(name).is_empty() {
                out.set(name, s.quantile(name, 0.5));
            }
        }
        out.set("query_p50_us", s.quantile("query_us", 0.5));
        // A p99 per read burst and per write round, then their median: a
        // pooled p99 follows the few slowest rebuilds or bursts of a run.
        out.set("query_p99_us", s.quantile("query_p99_us", 0.5));
        out.set("insert_p50_us", s.quantile("insert_us", 0.5));
        out.set("insert_p99_us", s.quantile("insert_p99_us", 0.5));
        out.set("serve.insert_wait_us_p99", s.quantile("insert_wait_us", 0.99));
        out.set("serve.insert_service_us_p50", s.quantile("insert_service_us", 0.5));
        out.set("serve.query_us_p99", s.quantile("write_query_us", 0.99));
        out.set("serve.query_wait_us_p99", s.quantile("query_wait_us", 0.99));
        out.set("serve.query_service_us_p99", s.quantile("query_service_us", 0.99));
        out.set("gen.lateness_us_p99", s.quantile("lateness_us", 0.99));
        out.set("serve.mapped", if s.get("serve.copied").is_empty() { 1.0 } else { 0.0 });
        // Inserts that waited behind a rebuild: slower than a quarter of
        // the median rebuild.
        let cut = s.quantile("serve.rebuild_ms", 0.5) * 1e3 / 4.0;
        let inserts = s.get("insert_us");
        let stalled = inserts.iter().filter(|&&v| v > cut).count();
        out.set("serve.stalled_insert_share", stalled as f64 / inserts.len().max(1) as f64);

        if let (Some(&traced), Some(&plain)) =
            (out.metrics.get("trace.build_s"), out.metrics.get("build_s"))
        {
            // The traced run's own build_s; set against an untraced run's
            // build_s it gives the tracing overhead (see steady.py).
            out.set("trace.plain_build_s", plain);
            out.set("trace.decomposed_over_plain_pct", (traced / plain - 1.0) * 100.0);
            let layers = out.metrics.get("similarity.goldfinger_s").copied().unwrap_or(0.0)
                + out.metrics.get("core.assign_s").copied().unwrap_or(0.0)
                + s.quantile("trace.local_knn_s", 0.5);
            out.set("trace.build_coverage", layers / traced);
            out.ledger.check(layers / traced >= 0.9, || {
                format!(
                    "layer spans cover only {:.1}% of the traced build",
                    layers / traced * 100.0
                )
            });
        }
        out.set("peak_rss_mb", crate::util::peak_rss_mb());
    }
}

// ── Helpers ───────────────────────────────────────────────────────────

/// An engine serving the snapshot at `path` through the mmap adoption path.
fn replica(path: &Path, config: ServingConfig) -> Result<ServingEngine, String> {
    let adopted =
        AdoptedSnapshot::open(path).map_err(|e| format!("adopt {}: {e}", path.display()))?;
    Ok(ServingEngine::from_parts(
        adopted.dataset,
        adopted.graph,
        adopted.goldfinger.map(Arc::new),
        config,
    ))
}

/// Every pool query answered once by `engine`, seeded by its index.
fn answers(engine: &ServingEngine, pool: &[Vec<u32>]) -> Vec<Vec<(u32, u32)>> {
    let mut session = engine.session();
    pool.iter()
        .enumerate()
        .map(|(i, p)| {
            engine
                .query_with(&mut session, p, TOP, i as u64)
                .neighbors
                .iter()
                .map(|n| (n.user, n.sim.to_bits()))
                .collect()
        })
        .collect()
}

/// Mean recall@10 of `engine` over the pool queries (seeded by index)
/// against their exhaustive top-10.
fn mean_recall(
    engine: &ServingEngine,
    pool: &[Vec<u32>],
    pool_fps: &[Vec<u64>],
    truth: &[Vec<(u32, f64)>],
) -> f64 {
    let epoch = engine.current_epoch();
    let gf = epoch.fingerprints().expect("GoldFinger epoch");
    let mut session = engine.session();
    let total: f64 = pool
        .iter()
        .zip(pool_fps)
        .zip(truth)
        .enumerate()
        .map(|(i, ((p, fp), truth))| {
            let answer = engine.query_with(&mut session, p, TOP, i as u64);
            let sims: Vec<f64> = answer
                .neighbors
                .iter()
                .map(|n| fingerprint_estimate(gf.fingerprint(n.user), fp))
                .collect();
            recall(&sims, truth)
        })
        .sum();
    total / pool.len() as f64
}

/// Keeps every core busy for one second, untimed. On the reference host
/// (2 vCPUs) the first second of work after the write round's mostly idle
/// spell runs up to 2x slower: C² builds of 0.25 s took 0.45-0.55 s in
/// every other cycle, and half a second of warm-up did not remove it.
fn warm_cores() {
    let until = Instant::now() + Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for _ in 0..1_000 {
                        x = black_box(x.wrapping_mul(3).wrapping_add(1));
                    }
                }
            });
        }
    });
}

/// How long before its due time a generator thread stops sleeping and
/// spins, so that timer slack does not delay the operation.
const SPIN: Duration = Duration::from_micros(200);

/// Waits until `due`; returns how late the thread resumed, or `None` when
/// it was already late (the program, not the wait, is the cause).
fn wait_until(due: Instant) -> Option<f64> {
    let now = Instant::now();
    if now >= due {
        return None;
    }
    if due - now > SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Some(secs(Instant::now().saturating_duration_since(due)) * 1e6)
}
