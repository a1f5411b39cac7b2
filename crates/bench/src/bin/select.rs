//! `select`: the end-user tool. Reads a Matrix Market file, extracts the
//! Table 1 features, and prints the recommended storage format for each
//! GPU (with the cluster-based explanation), plus the overhead-conscious
//! recommendation for iterative workloads.
//!
//! ```sh
//! select MATRIX.mtx [--model MODEL.spsel] [--iterations N] [--base N]
//!        [--faults R] [--fault-seed S]
//! ```
//!
//! With `--model` the decision comes from a pre-trained artifact (see
//! `spsel train`); otherwise selectors are trained on demand. Either way
//! the file is featurized by `engine::matrix_stats` and the decision goes
//! through the serving engine — the exact codepath `spsel-serve` answers
//! network requests with — so the CLI and the daemon can never disagree
//! about a matrix. All failures are typed:
//! the serve error envelope goes to stderr and the exit code is nonzero
//! (2 for bad arguments, 1 otherwise).

use spsel_core::corpus::{Corpus, CorpusConfig};
use spsel_core::semi::SemiSupervisedSelector;
use spsel_core::CoreError;
use spsel_features::FeatureVector;
use spsel_gpusim::cost::ConversionCostModel;
use spsel_gpusim::{FaultConfig, Gpu, TrialPolicy};
use spsel_matrix::Format;
use spsel_serve::artifact::{self, TrainConfig};
use spsel_serve::engine::matrix_stats;
use spsel_serve::protocol::SelectBody;
use spsel_serve::{Engine, EngineOptions, ServeError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!(
            "select: {}",
            serde_json::to_string(&e.envelope()).expect("envelope serializes")
        );
        std::process::exit(match e {
            ServeError::BadRequest { .. } => 2,
            _ => 1,
        });
    }
}

/// Parse the value after a flag, typed; a missing or unparsable value is
/// an `invalid argument` error, not a panic.
fn value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, ServeError> {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CoreError::invalid_argument(format!("{flag} needs a value")).into())
}

fn run(args: &[String]) -> Result<(), ServeError> {
    let mut path = None;
    let mut model_path: Option<String> = None;
    let mut iterations = 1000usize;
    let mut n_base = 300usize;
    let mut faults = FaultConfig::from_env();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--model" => {
                model_path = Some(value(args, i, "--model")?);
                i += 1;
            }
            "--iterations" => {
                iterations = value(args, i, "--iterations")?;
                i += 1;
            }
            "--base" => {
                n_base = value(args, i, "--base")?;
                i += 1;
            }
            "--faults" => {
                let rate: f64 = value(args, i, "--faults")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(
                        CoreError::invalid_argument("--faults takes a rate in [0, 1]").into(),
                    );
                }
                faults = if rate > 0.0 {
                    FaultConfig::uniform(rate, faults.seed)
                } else {
                    FaultConfig::off()
                };
                i += 1;
            }
            "--fault-seed" => {
                faults.seed = value(args, i, "--fault-seed")?;
                i += 1;
            }
            p if !p.starts_with("--") => path = Some(p.to_string()),
            other => {
                return Err(
                    CoreError::invalid_argument(format!("unknown argument `{other}`")).into(),
                )
            }
        }
        i += 1;
    }
    let path = path.ok_or_else(|| {
        ServeError::from(CoreError::invalid_argument(
            "usage: select MATRIX.mtx [--model MODEL] [--iterations N] [--base N] [--faults R]",
        ))
    })?;

    let (stats, _) = matrix_stats(&path)?;
    let fv = FeatureVector::from_stats(&stats);
    println!(
        "{path}: {} x {} matrix, {} nonzeros, rows {}..{} (mean {:.1})",
        stats.nrows, stats.ncols, stats.nnz, stats.nnz_min, stats.nnz_max, stats.nnz_mean
    );

    let engine = match model_path {
        Some(model_path) => {
            let model = artifact::load(&model_path)?;
            eprintln!(
                "using artifact v{} from {model_path} ({} GPUs, context {})",
                model.artifact_version,
                model.gpus.len(),
                model.context_digest
            );
            Engine::from_artifact(&model, &EngineOptions::default())?
        }
        None => {
            eprintln!("training selectors on a {n_base}-matrix corpus...");
            train_on_demand(n_base, &faults)?
        }
    };

    println!(
        "\n{:<8} {:>10} | {:>38} | amortized @{iterations} iters",
        "GPU", "predicted", "explanation"
    );
    for gpu in engine.gpus() {
        let body = SelectBody {
            matrix: None,
            features: Some(fv.as_slice().to_vec()),
            gpu: gpu.name().to_string(),
            iterations: Some(iterations),
            learn: Some(false),
            workload: None,
        };
        let reply = engine.select(&body)?;
        println!(
            "{:<8} {:>10} | cluster #{:<4} size {:<5} dist {:<6.3} | {} (break-even {} iters)",
            reply.gpu,
            reply.format,
            reply.cluster,
            reply.cluster_size,
            reply.centroid_distance,
            reply.amortized_format,
            reply
                .break_even_iterations
                .map_or("-".to_string(), |n| n.to_string()),
        );
    }
    Ok(())
}

/// The no-artifact path: build the training corpus, benchmark it
/// (optionally through the fault injector), and fit one selector per
/// GPU with the standard training heuristic.
fn train_on_demand(n_base: usize, faults: &FaultConfig) -> Result<Engine, ServeError> {
    let corpus = Corpus::build(CorpusConfig {
        n_base,
        augment_copies: 0,
        seed: 0xC0FFEE,
        with_images: false,
        image_resolution: 32,
        size_scale: 1.0,
    });
    let tc = TrainConfig::default();
    let mut selectors = Vec::new();
    for gpu in Gpu::ALL {
        let bench = if faults.enabled() {
            let measured = corpus.measure(gpu, faults, &TrialPolicy::default());
            for (index, err) in measured.quarantined() {
                eprintln!(
                    "degradation: {} record {index} quarantined ({err})",
                    gpu.name()
                );
            }
            measured.results()
        } else {
            corpus.benchmark(gpu)
        };
        let usable: Vec<usize> = (0..corpus.len()).filter(|&i| bench[i].is_some()).collect();
        if usable.is_empty() {
            eprintln!("degradation: no usable training matrices on {}", gpu.name());
            continue;
        }
        let features: Vec<FeatureVector> = usable
            .iter()
            .map(|&i| corpus.records[i].features.clone())
            .collect();
        let labels: Vec<Format> = match Corpus::labels(&bench, &usable) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("degradation: cannot label {} corpus: {e}", gpu.name());
                continue;
            }
        };
        let selector =
            SemiSupervisedSelector::fit(&features, &labels, tc.semi_config(usable.len()));
        selectors.push((gpu, selector, usable.len()));
    }
    if selectors.is_empty() {
        return Err(CoreError::EmptyDataset { gpu: "all".into() }.into());
    }
    Ok(Engine::from_selectors(
        selectors,
        ConversionCostModel::default(),
        &EngineOptions::default(),
    ))
}
