"""tokenweave: multi-stream token modeling with codebook interleaving patterns.

Modules cover the full desk-scale pipeline: synthetic RVQ token grids (rvq),
interleaving patterns (patterns), chroma/text conditioning (conditioning), a
from-scratch autoregressive decoder with explicit gradients (model), guided
sampling (sampling), exact distribution oracles (oracle),
memorization/melody-adherence analyses (analysis), synthetic corpora
(corpus), and the experiment-runner CLI (cli).
"""

__version__ = "0.1.0"

from .errors import GuardError, InvariantError, ValidationError
from .patterns import (
    Pattern,
    PatternKind,
    StepCounts,
    TokenGrid,
    apply_pattern,
    build_pattern,
    revert_pattern,
    step_counts,
)
from .rvq import (
    Codebook,
    LatentFrames,
    RVQConfig,
    residual_energy_profile,
    rvq_decode,
    rvq_encode,
    synth_latents,
    train_codebooks,
)
from .conditioning import (
    AudioBuffer,
    Chromagram,
    ConditioningTensor,
    PreprocessConfig,
    QuantizedChroma,
    TextAnnotation,
    chroma_cosine_similarity,
    chroma_to_condition,
    compute_chromagram,
    encode_text_toy,
    merge_conditions,
    quantize_chroma,
    text_normalize,
    word_dropout,
)
from .model import (
    AdamWState,
    CombinedCondition,
    ModelConfig,
    Parameters,
    TrainExample,
    TrainHyper,
    example_from_grid,
    forward,
    grad,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .sampling import SamplerConfig, cfg_combine, continue_from_prompt, generate, sample_token
from .oracle import (
    JointDistribution,
    exactness_report,
    induced_distribution,
    make_joint,
    tv_distance,
)
from .analysis import (
    MemorizationReport,
    MemorizationRow,
    chroma_adherence,
    class_anchor_latents,
    memorization_report,
    sonify_classes,
)
from .corpus import Corpus, make_corpus
