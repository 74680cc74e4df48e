"""Recommendation models: SceneRec, its ablations and all paper baselines.

* :class:`~repro.models.scenerec.SceneRec` — the paper's contribution
  (Section 4), built on the scene-based graph and the user-item graph.
* :mod:`~repro.models.scenerec_variants` — the three ablations of Table 2:
  ``SceneRec-noitem``, ``SceneRec-nosce`` and ``SceneRec-noatt``.
* :mod:`~repro.models.baselines` — re-implementations of the six baselines
  (BPR-MF, NCF, CMN, PinSAGE, NGCF, KGAT) plus non-learned sanity baselines.
* :func:`build_model` / :func:`register_model` — the registry/factory used by
  the benchmark harness and its public extension point.

Scoring is two-tier (see :mod:`repro.models.base`): pairwise
``score(users, items)`` everywhere, plus a catalogue-wide
``score_matrix(users)`` that factorized models (:class:`FactorizedRecommender`,
SceneRec included) answer from representations encoded once — the path
:mod:`repro.serving` and both evaluators are built on.
"""

from repro.models.base import (
    FactorizedRecommender,
    FactorizedRepresentations,
    Recommender,
    compute_score_matrix,
    has_matrix_fast_path,
)
from repro.models.baselines.bpr_mf import BPRMF
from repro.models.baselines.cmn import CMN
from repro.models.baselines.kgat import KGAT
from repro.models.baselines.ncf import NCF
from repro.models.baselines.ngcf import NGCF
from repro.models.baselines.pinsage import PinSAGE
from repro.models.baselines.simple import ItemKNN, ItemPop, RandomRecommender
from repro.models.registry import MODEL_REGISTRY, build_model, list_model_names, register_model
from repro.models.scenerec import SceneRec, SceneRecConfig
from repro.models.scenerec_variants import SceneRecNoAttention, SceneRecNoItem, SceneRecNoScene

__all__ = [
    "BPRMF",
    "CMN",
    "FactorizedRecommender",
    "FactorizedRepresentations",
    "ItemKNN",
    "ItemPop",
    "KGAT",
    "MODEL_REGISTRY",
    "NCF",
    "NGCF",
    "PinSAGE",
    "RandomRecommender",
    "Recommender",
    "SceneRec",
    "SceneRecConfig",
    "SceneRecNoAttention",
    "SceneRecNoItem",
    "SceneRecNoScene",
    "build_model",
    "compute_score_matrix",
    "has_matrix_fast_path",
    "list_model_names",
    "register_model",
]
