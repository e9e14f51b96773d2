"""Prototype-conditioned fast-weight adapters on synthetic episodic tasks.

The library covers the full pipeline: synthetic corpus generation with
planted low-rank adapter structure, spectral rank diagnostics with bootstrap
tests, prototype memory construction with coverage certificates, sparse
retrieval solved exactly by a batched active-set loop and trained through the
solution's implicit gradient behind a residual MLP descriptor warp, calibrated
motif statistics, an adaptive ODE integrator with adjoint gradients, and an
executable excess-risk bound checker.
"""

from .adapters import AdapterMatrix, Canonicalizer, assemble_theta, fit_canonicalizer, ridge_adapter
from .descriptors import LeakageError, ProbeHead, Standardizer, build_descriptor, pooled_moments
from .metrics import MetricsRecord, compute_metrics, rank_auc
from .motifs import (
    MarkovBackground,
    calibrate_tau,
    channel_activations,
    fit_background,
    make_channels,
    motif_test_report,
    permutation_pvalue,
    power_curve,
    q_values,
    screen_channels,
    storey_pi0,
)
from .node import SolveConfig, VectorField, adjoint_gradient, integrate
from .pipeline import (
    RunConfig,
    desk_config,
    emit_report,
    fewshot_benchmark_config,
    run_ablations,
    run_baselines,
    run_motifs,
    run_phase1,
    run_phase2,
    run_riskbound,
    run_seed_stability,
    run_support_sweep,
)
from .prototypes import (
    CoverageCertificate,
    PrototypeMemory,
    ProjectionChain,
    cluster_prototypes,
    coverage_certificate,
    coverage_fits,
    l0_fit,
    merge_prototypes,
)
from .retrieval import (
    Episodes,
    ProximalConfig,
    RetrievalNet,
    RetrievalSolution,
    TrainConfig,
    hard_top_r,
    objective_trace,
    outer_terms,
    solve_block,
    solve_proximal,
    sweep_lambda_eta,
    train_retrieval,
)
from .riskbound import check_bound, check_bounds_over_tasks
from .spectral import (
    DimTestReport,
    FisherSpectrum,
    corpus_fisher_spectrum,
    fisher_energy_test,
    fisher_energy_test_tasks,
    jl_outside_energy,
    pca_rank,
    sequential_r_selection,
)
from .synthdata import (
    Corpus,
    CorpusTask,
    EpisodeTask,
    GeneratorConfig,
    generate_corpus,
    partition_tags,
)

__version__ = "0.1.0"
