"""Dynamic ensemble decoding: one sequence model, many inputs, one output.

A single conditional sequence model is applied independently to several
related inputs; at every beam-search timestep the per-input next-token
distributions are combined into one, so all inputs share the same output
prefix. The package also records per-input provenance traces, evaluates
with self-contained ROUGE metrics, and ships a CLI for reproducible runs.
"""

from .data import (
    Cluster,
    ClusterSet,
    load_clusters,
    save_clusters,
    select_document_indices,
    tokenize_and_truncate,
)
from .decoder import (
    DecodeParams,
    Reduce,
    ScoredHypothesis,
    beam_search,
    brute_force_search,
    ensemble_step,
    reduce_mean_logprob,
    reduce_mean_prob,
    sequence_score,
)
from .errors import DecodeError, FormatError
from .provenance import TraceMatrix, TraceRow
from .rouge import (
    MultiRefStrategy,
    RougeConfig,
    RougeScore,
    rouge_l,
    rouge_n,
)
from .seqmodel import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    CopyBigramModel,
    LogProbVector,
    SequenceModel,
    TokenSeq,
    ToyModelSpec,
    Vocab,
    load_model,
)
from .synthetic import ConsensusCorpus, build_consensus_corpus

__version__ = "0.1.0"

__all__ = [
    "BOS_ID",
    "EOS_ID",
    "UNK_ID",
    "Cluster",
    "ClusterSet",
    "ConsensusCorpus",
    "CopyBigramModel",
    "DecodeError",
    "DecodeParams",
    "FormatError",
    "LogProbVector",
    "MultiRefStrategy",
    "Reduce",
    "RougeConfig",
    "RougeScore",
    "ScoredHypothesis",
    "SequenceModel",
    "TokenSeq",
    "ToyModelSpec",
    "TraceMatrix",
    "TraceRow",
    "Vocab",
    "beam_search",
    "brute_force_search",
    "build_consensus_corpus",
    "ensemble_step",
    "load_clusters",
    "load_model",
    "reduce_mean_logprob",
    "reduce_mean_prob",
    "rouge_l",
    "rouge_n",
    "save_clusters",
    "select_document_indices",
    "sequence_score",
    "tokenize_and_truncate",
]
