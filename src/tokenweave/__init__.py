"""tokenweave: multi-stream token modeling with codebook interleaving patterns.

Modules cover the full desk-scale pipeline: synthetic RVQ token grids (rvq),
interleaving patterns (patterns), chroma/text conditioning and pitch-class
sonification (conditioning), a from-scratch autoregressive decoder with
explicit gradients (model), guided sampling and memorization reports
(sampling), exact distribution oracles (oracle), synthetic corpora (corpus),
and the experiment-runner CLI (cli). Each name is imported from
its module (``from tokenweave.sampling import generate``); the package root
holds only ``__version__``.
"""

__version__ = "0.1.0"
