"""Embedding-quality evaluation.

OMeGa claims to preserve ProNE's representation quality (its
optimizations are scheduling/placement only).  This subpackage provides
the two standard downstream probes:

- :mod:`repro.eval.linkpred` — link prediction AUC by edge ranking;
- :mod:`repro.eval.nodeclass` — node classification with a from-scratch
  one-vs-rest logistic regression.
"""

from repro.eval.linkpred import link_prediction_auc, score_edges
from repro.eval.nodeclass import LogisticRegressionOVR, node_classification_accuracy
from repro.eval.splits import sample_negative_edges, train_test_edge_split

__all__ = [
    "LogisticRegressionOVR",
    "link_prediction_auc",
    "node_classification_accuracy",
    "sample_negative_edges",
    "score_edges",
    "train_test_edge_split",
]
