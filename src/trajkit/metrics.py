"""Tracking evaluation: localization, association and classification scores.

Per frame, predicted and ground-truth boxes are matched one-to-one by
Hungarian assignment on IoU, restricted to pairs with IoU at or above the
threshold (maximum match count first, maximum total IoU among those).
From the per-frame matches:

- LocA = 100 * TP / (TP + FP + FN) over all frames,
- AssA = 100 * mean over matched instances of
  TPA / (TPA + FNA + FPA), the co-assignment Jaccard of one
  (pred track, gt track) pair,
- ClsA = 100 * fraction of matched instances whose predicted track label
  equals the ground-truth category,
- TETA = mean of the three.

Scores are reported overall and per vocabulary split. A split keeps its own
ground-truth tracks plus the predictions matched to them; predictions that
never match anything count against the overall scores only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .io import BBox

_INADMISSIBLE = 1e9  # assignment cost for pairs below the IoU threshold


@dataclass
class EvalConfig:
    iou_threshold: float = 0.5
    splits: Mapping[int, str] = field(default_factory=dict)  # category id -> base | novel

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in (0, 1]")


@dataclass
class SplitScores:
    teta: float = 0.0
    loc_a: float = 0.0
    ass_a: float = 0.0
    cls_a: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    overall: SplitScores
    base: SplitScores
    novel: SplitScores

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        header = f"{'scope':<9}{'TETA':>8}{'LocA':>8}{'AssA':>8}{'ClsA':>8}{'TP':>7}{'FP':>7}{'FN':>7}"
        lines = [header]
        for name in ("overall", "base", "novel"):
            s: SplitScores = getattr(self, name)
            lines.append(f"{name:<9}{s.teta:>8.2f}{s.loc_a:>8.2f}{s.ass_a:>8.2f}"
                         f"{s.cls_a:>8.2f}{s.tp:>7}{s.fp:>7}{s.fn:>7}")
        return "\n".join(lines)


def iou(b1: BBox, b2: BBox) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    x1, y1, w1, h1 = b1
    x2, y2, w2, h2 = b2
    ix = min(x1 + w1, x2 + w2) - max(x1, x2)
    iy = min(y1 + h1, y2 + h2) - max(y1, y2)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = w1 * h1 + w2 * h2 - inter
    return inter / union if union > 0.0 else 0.0


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """(len(a), len(b)) pairwise IoU, vectorized."""
    if len(boxes_a) == 0 or len(boxes_b) == 0:
        return np.zeros((len(boxes_a), len(boxes_b)))
    a = np.asarray(boxes_a, dtype=np.float64)
    b = np.asarray(boxes_b, dtype=np.float64)
    ix = (np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2])
          - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = (np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3])
          - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def frame_matching(pred_boxes: Sequence[BBox], gt_boxes: Sequence[BBox],
                   iou_threshold: float = 0.5) -> list[tuple[int, int]]:
    """Optimal one-to-one box matching within one frame.

    Only pairs with IoU >= iou_threshold are admissible. Among admissible
    matchings the result maximizes the number of pairs, then the total IoU;
    greedy per-box choices are not optimal in general.
    """
    m = iou_matrix(pred_boxes, gt_boxes)
    if m.size == 0:
        return []
    cost = np.where(m >= iou_threshold, 1.0 - m, _INADMISSIBLE)
    rows, cols = linear_sum_assignment(cost)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if m[r, c] >= iou_threshold]


def evaluate(preds, gts, cfg: EvalConfig | None = None) -> EvalReport:
    """Score predicted tracks against ground truth.

    ``preds`` need ``track_id``, ``boxes`` (frame -> bbox) and ``label``;
    ``gts`` need ``track_id``, ``boxes`` and ``category_id``. Track ids only
    name the tracks, scores are invariant under renaming.
    """
    cfg = cfg or EvalConfig()
    pred_label = [getattr(p, "label", None) for p in preds]
    gt_cat = [g.category_id for g in gts]
    # frame -> (pred indices, pred boxes, gt indices, gt boxes), each in track order
    by_frame: dict[int, tuple[list, list, list, list]] = {}
    pred_present: list[int] = []  # boxes per track
    gt_present: list[int] = []
    for col, tracks, present in ((0, preds, pred_present), (2, gts, gt_present)):
        for i, track in enumerate(tracks):
            boxes = track.boxes
            present.append(len(boxes))
            for frame, box in boxes.items():
                row = by_frame.get(frame)
                if row is None:
                    row = by_frame[frame] = ([], [], [], [])
                row[col].append(i)
                row[col + 1].append(box)

    pair_tpa: dict[tuple[int, int], int] = {}
    for frame in sorted(by_frame):
        ps, pred_boxes, gs, gt_boxes = by_frame[frame]
        for r, c in frame_matching(pred_boxes, gt_boxes, cfg.iou_threshold):
            key = (ps[r], gs[c])
            pair_tpa[key] = pair_tpa.get(key, 0) + 1
    matched_pred = [0] * len(preds)
    for (pi, _), tpa in pair_tpa.items():
        matched_pred[pi] += tpa

    def _scores(pairs, pred_in, gt_in) -> SplitScores:
        """Scores of the matched ``pairs`` (in match order), the predictions
        ``pred_in`` and the ground-truth tracks ``gt_in`` of one scope."""
        tp, ass, cls = 0, 0.0, 0.0
        for pi, gi in pairs:
            tpa = pair_tpa[(pi, gi)]
            ass += tpa * (tpa / (pred_present[pi] + gt_present[gi] - tpa))
            cls += tpa * (1.0 if pred_label[pi] == gt_cat[gi] else 0.0)
            tp += tpa
        fp = sum(pred_present[pi] - matched_pred[pi] for pi in pred_in)
        fn = sum(gt_present[gi] for gi in gt_in) - tp
        loc_a = 100.0 * tp / (tp + fp + fn) if tp + fp + fn else 0.0
        ass_a = 100.0 * ass / tp if tp else 0.0
        cls_a = 100.0 * cls / tp if tp else 0.0
        return SplitScores((loc_a + ass_a + cls_a) / 3.0, loc_a, ass_a, cls_a, tp, fp, fn)

    scopes = {"overall": _scores(pair_tpa, range(len(preds)), range(len(gts)))}
    for split in ("base", "novel"):
        gt_in = {gi for gi, cat in enumerate(gt_cat) if cfg.splits.get(cat) == split}
        pairs = [pair for pair in pair_tpa if pair[1] in gt_in]
        scopes[split] = _scores(pairs, {pi for pi, _ in pairs}, gt_in)
    return EvalReport(**scopes)
