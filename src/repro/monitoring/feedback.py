"""Production supervision signals.

The lab's final part explores "strategies for collecting supervision
signals in production settings, using both 'real users' and dedicated
human annotators" (paper §3.7).  :class:`FeedbackCollector` gathers both
signal kinds over served predictions and estimates live accuracy from the
labelled subsample — the input that ultimately triggers retraining in the
GourmetGram lifecycle loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.common.errors import NotFoundError, ValidationError


@dataclass
class ServedPrediction:
    request_id: str
    features: Any
    prediction: Any
    user_flagged: bool = False
    true_label: Any = None
    label_source: str | None = None  # "user" | "annotator"


class FeedbackCollector:
    """Collects user flags and annotator labels over served predictions."""

    def __init__(self, *, annotation_rate: float = 0.05, seed: int = 0) -> None:
        if not (0 <= annotation_rate <= 1):
            raise ValidationError(f"annotation rate must be in [0,1]: {annotation_rate!r}")
        self.annotation_rate = annotation_rate
        self._rng = np.random.default_rng(seed)
        self._served: dict[str, ServedPrediction] = {}
        self._annotation_queue: list[str] = []

    # -- capture ---------------------------------------------------------------

    def record(self, request_id: str, features: Any, prediction: Any) -> None:
        if request_id in self._served:
            raise ValidationError(f"duplicate request id {request_id!r}")
        self._served[request_id] = ServedPrediction(request_id, features, prediction)
        # random sampling into the annotation queue
        if self._rng.random() < self.annotation_rate:
            self._annotation_queue.append(request_id)

    # -- user signals -----------------------------------------------------------

    def user_flag(self, request_id: str, *, corrected_label: Any = None) -> None:
        """A 'real user' reports a wrong tag (optionally correcting it)."""
        rec = self._get(request_id)
        rec.user_flagged = True
        if corrected_label is not None:
            rec.true_label = corrected_label
            rec.label_source = "user"
        # flagged items get priority annotation
        if rec.true_label is None and request_id not in self._annotation_queue:
            self._annotation_queue.insert(0, request_id)

    # -- annotator signals ---------------------------------------------------------

    def annotation_backlog(self) -> list[str]:
        return [r for r in self._annotation_queue if self._served[r].true_label is None]

    def annotate(self, request_id: str, label: Any) -> None:
        rec = self._get(request_id)
        rec.true_label = label
        rec.label_source = "annotator"
        if request_id in self._annotation_queue:
            self._annotation_queue.remove(request_id)

    # -- estimates -----------------------------------------------------------------

    def labelled(self) -> list[ServedPrediction]:
        return [r for r in self._served.values() if r.true_label is not None]

    def flag_rate(self) -> float:
        if not self._served:
            raise ValidationError("no predictions served")
        return sum(1 for r in self._served.values() if r.user_flagged) / len(self._served)

    def live_accuracy(self, *, min_labels: int = 10) -> float:
        """Accuracy on the labelled subsample (requires enough labels)."""
        labelled = self.labelled()
        if len(labelled) < min_labels:
            raise ValidationError(
                f"only {len(labelled)} labels; need {min_labels} for an estimate"
            )
        return sum(1 for r in labelled if r.prediction == r.true_label) / len(labelled)

    def training_examples(self) -> list[tuple[Any, Any]]:
        """(features, true_label) pairs — the retraining feedstock."""
        return [(r.features, r.true_label) for r in self.labelled()]

    def _get(self, request_id: str) -> ServedPrediction:
        try:
            return self._served[request_id]
        except KeyError:
            raise NotFoundError(f"request {request_id!r} was never served") from None
