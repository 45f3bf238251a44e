//! Environment build and training cells.
//!
//! The untraced path calls [`TagletsSystem::run`] exactly as a user does.
//! The traced path composes the same public calls the system makes —
//! selection, each `TagletModule::train`, `Ensemble::predict_proba`,
//! `distillation::train_end_model` — with a span around each, and one cell
//! per run is cross-checked bitwise against `TagletsSystem::run` so the
//! per-layer numbers describe the same program.

use std::borrow::Cow;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use taglets_core::{
    distillation, Ensemble, Executor, FixMatchModule, ModuleContext, MultiTaskModule,
    SelectionStrategy, ServableModel, Taglet, TagletModule, TagletsConfig, TagletsSystem,
    TransferModule, ZslKgConfig, ZslKgModule,
};
use taglets_data::{
    standard_tasks, ConceptUniverse, Image, ModelZoo, Task, TaskSplit, UniverseConfig, ZooConfig,
};
use taglets_eval::ExperimentScale;
use taglets_graph::{ConceptId, SyntheticGraphConfig};
use taglets_scads::{PruneLevel, Scads};
use taglets_tensor::Tensor;

use crate::calib::Meter;
use crate::trace::Tracer;

/// Everything the system reads and never mutates.
pub struct Env {
    pub tasks: Vec<Task>,
    pub scads: Scads<Image>,
    pub zoo: ModelZoo,
    pub zslkg: ZslKgModule,
}

/// Builds the environment the evaluation runner builds at `scale`, with the
/// library's default configs, one span per phase.
pub fn build_env(scale: ExperimentScale, tracer: &mut Tracer) -> Result<Env, String> {
    let mut universe = tracer.span("data.universe", || {
        ConceptUniverse::new(UniverseConfig {
            graph: SyntheticGraphConfig {
                num_concepts: scale.num_concepts(),
                ..SyntheticGraphConfig::default()
            },
            ..UniverseConfig::default()
        })
    });
    let universe = universe.as_mut().map_err(|e| e.to_string())?;
    let tasks = tracer
        .span("data.tasks", || standard_tasks(universe))
        .map_err(|e| e.to_string())?;
    let corpus = tracer.span("data.corpus", || {
        universe.build_corpus(scale.corpus_per_concept(), 0)
    });
    let scads = tracer
        .span("scads.build", || universe.build_scads(&corpus))
        .map_err(|e| e.to_string())?;
    let zoo = tracer
        .span("data.zoo_pretrain", || {
            ModelZoo::pretrain(universe, &corpus, &ZooConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let zslkg = tracer.span("zslkg.pretrain", || {
        ZslKgModule::pretrain(&scads, &zoo, &ZslKgConfig::default(), 0)
    });
    Ok(Env {
        tasks,
        scads,
        zoo,
        zslkg,
    })
}

impl Env {
    pub fn task(&self, name: &str) -> Result<&Task, String> {
        self.tasks
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("task `{name}` is not in the standard set"))
    }

    pub fn system(&self) -> TagletsSystem<'_> {
        TagletsSystem::prepare_with_zslkg(
            &self.scads,
            &self.zoo,
            TagletsConfig::default(),
            self.zslkg.clone(),
        )
    }
}

/// What one training cell produced.
pub struct CellOutcome {
    pub seconds: f64,
    pub end_model: ServableModel,
    pub pseudo_labels: Tensor,
    pub end_acc: f64,
    pub ensemble_acc: f64,
}

/// Training seed of every cell (the workload seed picks the split).
pub const TRAIN_SEED: u64 = 0;

/// One cell through `TagletsSystem::run`, timed as a whole. Also returns
/// its time in thousands of reference passes.
pub fn run_cell(
    meter: &mut Meter,
    system: &TagletsSystem<'_>,
    task: &Task,
    split: &TaskSplit,
) -> Result<(CellOutcome, f64), String> {
    let (run, seconds, kpass) =
        meter.time(|| system.run(task, split, PruneLevel::NoPruning, TRAIN_SEED));
    let run = run.map_err(|e| e.to_string())?;
    let ensemble_acc = run.ensemble().accuracy(&split.test_x, &split.test_y) as f64;
    let end_acc = run.end_model.accuracy(&split.test_x, &split.test_y) as f64;
    Ok((
        CellOutcome {
            seconds,
            end_model: run.end_model,
            pseudo_labels: run.pseudo_labels,
            end_acc,
            ensemble_acc,
        },
        kpass,
    ))
}

/// Per-layer counters of composed cells, summed over cells.
#[derive(Default)]
pub struct LayerCounts {
    pub aux_examples: u64,
    pub ensemble_rows: u64,
    pub distill_steps: u64,
    /// Optimizer steps per module, in [`MODULES`] order.
    pub module_steps: [u64; 4],
}

/// Each built-in module, in the order the system trains them, with its
/// span name and the per-layer metric names of its time and steps.
pub const MODULES: [(&str, &str, &str, &str); 4] = [
    (
        TransferModule::NAME,
        "module.transfer",
        "module.transfer_s",
        "module.transfer.steps",
    ),
    (
        MultiTaskModule::NAME,
        "module.multitask",
        "module.multitask_s",
        "module.multitask.steps",
    ),
    (
        FixMatchModule::NAME,
        "module.fixmatch",
        "module.fixmatch_s",
        "module.fixmatch.steps",
    ),
    (
        ZslKgModule::NAME,
        "module.zsl-kg",
        "module.zsl-kg_s",
        "module.zsl-kg.steps",
    ),
];

/// One cell composed from the system's public calls, with a span per
/// stage and per module. Mirrors `TagletsSystem::run` under the default
/// config (graph-related selection, flat SCADS, serial executor).
pub fn compose_cell(
    env: &Env,
    task: &Task,
    split: &TaskSplit,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<CellOutcome, String> {
    let config = TagletsConfig::default();
    if config.selection != SelectionStrategy::GraphRelated || config.scads_shards != 1 {
        return Err("the composed cell mirrors only the default selection".to_string());
    }
    let executor = Executor::new(config.concurrency.from_env());
    let prune = PruneLevel::NoPruning;
    let seed = TRAIN_SEED;
    let start = Instant::now();
    let cell = tracer.begin("cell");

    let select = tracer.begin("select");
    let scads = extend_scads(&env.scads, task)?;
    let targets: Vec<ConceptId> = task
        .classes
        .iter()
        .map(|c| scads.graph().require(&c.name))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let selection = scads.select_related(
        &targets,
        config.related_concepts_per_class,
        config.images_per_concept,
        prune,
    );
    let unlabeled = capped_unlabeled(split, config.max_unlabeled, seed);
    tracer.end(select);
    counts.aux_examples += selection.len() as u64;

    let ctx = ModuleContext {
        task,
        split,
        scads: scads.as_ref(),
        zoo: &env.zoo,
        backbone: config.backbone,
        prune,
        config: &config,
        target_concepts: &targets,
        selection: &selection,
        unlabeled: &unlabeled,
    };
    let transfer = TransferModule;
    let multitask = MultiTaskModule;
    let fixmatch = FixMatchModule::new();
    let modules: [&dyn TagletModule; 4] = [&transfer, &multitask, &fixmatch, &env.zslkg];
    let mut taglets: Vec<Box<dyn Taglet>> = Vec::with_capacity(modules.len());
    for (i, module) in modules.iter().enumerate() {
        let (name, span, _, _) = MODULES[i];
        if module.name() != name {
            return Err(format!("module order changed: `{}`", module.name()));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ name_hash(name));
        let trained = tracer
            .span(span, || module.train(&ctx, &mut rng))
            .map_err(|e| e.to_string())?;
        counts.module_steps[i] += trained.report.steps as u64;
        taglets.push(trained.taglet);
    }

    let pseudo_labels = tracer.span("ensemble", || {
        if unlabeled.rows() > 0 {
            Ensemble::new(&taglets).predict_proba(&unlabeled)
        } else {
            Tensor::zeros(&[0, task.num_classes()])
        }
    });
    counts.ensemble_rows += unlabeled.rows() as u64;

    let end_model = tracer.span("distill", || {
        let (inputs, soft_targets) = distillation::distillation_set(
            &unlabeled,
            &pseudo_labels,
            &split.labeled_x,
            &split.labeled_y,
            task.num_classes(),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ name_hash("end-model"));
        let (classifier, report) = distillation::train_end_model(
            &env.zoo,
            config.backbone,
            &inputs,
            &soft_targets,
            task.num_classes(),
            &config.end_model,
            &executor,
            &mut rng,
        );
        counts.distill_steps += report.steps as u64;
        ServableModel::new(classifier)
    });
    tracer.end(cell);
    let seconds = start.elapsed().as_secs_f64();

    let ensemble_acc = Ensemble::new(&taglets).accuracy(&split.test_x, &split.test_y) as f64;
    let end_acc = end_model.accuracy(&split.test_x, &split.test_y) as f64;
    Ok(CellOutcome {
        seconds,
        end_model,
        pseudo_labels,
        end_acc,
        ensemble_acc,
    })
}

/// Adds out-of-vocabulary target classes to a private copy of SCADS, as
/// the select stage does (Appendix A.2).
fn extend_scads<'a>(scads: &'a Scads<Image>, task: &Task) -> Result<Cow<'a, Scads<Image>>, String> {
    if task.classes.iter().all(|c| c.concept.is_some()) {
        return Ok(Cow::Borrowed(scads));
    }
    let mut local = scads.clone();
    for class in task.classes.iter().filter(|c| c.concept.is_none()) {
        let links: Vec<(&str, taglets_graph::Relation)> = class
            .graph_links
            .iter()
            .map(|(n, r)| (n.as_str(), *r))
            .collect();
        local
            .add_concept(&class.name, &links)
            .map_err(|e| e.to_string())?;
    }
    Ok(Cow::Owned(local))
}

/// The unlabeled pool after the uniform compute-budget cap.
fn capped_unlabeled(split: &TaskSplit, cap: Option<usize>, seed: u64) -> Tensor {
    match cap {
        Some(cap) if split.unlabeled_x.rows() > cap => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xcab);
            let mut idx: Vec<usize> = (0..split.unlabeled_x.rows()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(cap);
            split.unlabeled_x.gather_rows(&idx)
        }
        _ => split.unlabeled_x.clone(),
    }
}

/// FNV-1a over the name: the per-module seed derivation of the system.
fn name_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Bitwise equality of two tensors (shape and every element's bits).
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks a composed cell against `TagletsSystem::run` on the same inputs:
/// pseudo labels and end-model outputs on the test set must match bit for
/// bit. Returns the untraced run's wall time.
pub fn cross_check(
    meter: &mut Meter,
    composed: &CellOutcome,
    system: &TagletsSystem<'_>,
    task: &Task,
    split: &TaskSplit,
) -> Result<(bool, f64), String> {
    let (reference, _) = run_cell(meter, system, task, split)?;
    let same = same_bits(&composed.pseudo_labels, &reference.pseudo_labels)
        && same_bits(
            &composed.end_model.predict_proba(&split.test_x),
            &reference.end_model.predict_proba(&split.test_x),
        );
    Ok((same, reference.seconds))
}
