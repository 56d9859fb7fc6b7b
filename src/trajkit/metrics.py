"""Tracking evaluation: localization, association and classification scores.

Per frame, predicted and ground-truth boxes are matched one-to-one by
Hungarian assignment on IoU, restricted to pairs with IoU at or above the
threshold (maximum match count first, maximum total IoU among those). A
frame whose admissible pairs already form a one-to-one matching skips the
solver, which would return exactly those pairs. ``evaluate`` reads the
boxes as columns (a ``TrackTable`` or ``GroundTruthTable`` as it is, other
tracks gathered once), groups them by frame with one stable sort and
matches each frame on its (n, 4) slices, frames in ascending order.
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

from .io import BBox, BoxTable, GroundTruthTable, TrackTable, _int_column, _runs

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
    greedy per-box choices are not optimal in general. Pairs come in
    ascending row order.

    When no row and no column has two admissible pairs, those pairs are the
    answer, and ``linear_sum_assignment`` is not called: leaving one out costs
    ``_INADMISSIBLE`` more, while taking it costs less than 1, so the solver
    returns each of them (and only inadmissible pairs besides), rows sorted.
    """
    m = iou_matrix(pred_boxes, gt_boxes)
    if m.size == 0:
        return []
    admissible = m >= iou_threshold
    if admissible.sum(axis=0).max() <= 1 and admissible.sum(axis=1).max() <= 1:
        rows, cols = np.nonzero(admissible)
        return list(zip(rows.tolist(), cols.tolist()))
    rows, cols = linear_sum_assignment(np.where(admissible, 1.0 - m, _INADMISSIBLE))
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if admissible[r, c]]


def _box_columns(tracks) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(track, frame, bbox, present)``: each box's track index, frame and (x, y, w, h) row,
    in track order, and each track's box count. A ``BoxTable``'s columns are read as they are;
    other tracks' ``boxes`` (frame -> bbox) are gathered once."""
    if isinstance(tracks, BoxTable):
        frames, bbox, present = tracks.frame, tracks.bbox, np.diff(tracks.bounds)
    else:
        timelines = [track.boxes for track in tracks]
        frames = _int_column([frame for boxes in timelines for frame in boxes])
        bbox = np.array([box for boxes in timelines for box in boxes.values()], dtype=np.float64).reshape(-1, 4)
        present = np.array(list(map(len, timelines)), dtype=np.int64)
    return np.repeat(np.arange(len(present)), present), frames, bbox, present


def evaluate(preds, gts, cfg: EvalConfig | None = None) -> EvalReport:
    """Score predicted tracks against ground truth.

    ``preds`` need ``track_id``, ``boxes`` (frame -> bbox) and ``label``;
    ``gts`` need ``track_id``, ``boxes`` and ``category_id``. A ``TrackTable``
    and a ``GroundTruthTable`` are read by columns. Track ids only name the
    tracks, scores are invariant under renaming.
    """
    cfg = cfg or EvalConfig()
    pred_label = preds.label if isinstance(preds, TrackTable) else [getattr(p, "label", None) for p in preds]
    gt_cat = gts.category_id if isinstance(gts, GroundTruthTable) else [g.category_id for g in gts]
    (p_track, p_frame, p_box, pred_present), (g_track, g_frame, g_box, gt_present) = map(_box_columns, (preds, gts))
    # every box by frame with one stable sort: a frame's rows are its predictions, then from
    # splits[i] on its ground truth, each in track order
    frames = np.concatenate([p_frame, g_frame])
    order = np.argsort(frames, kind="stable")
    bounds = _runs(frames[order])
    splits = (bounds[:-1] + np.add.reduceat(order < len(p_track), bounds[:-1])).tolist()
    track = np.concatenate([p_track, g_track])[order].tolist()
    boxes = np.concatenate([p_box, g_box])[order]

    pair_tpa: dict[tuple[int, int], int] = {}
    for lo, mid, hi in zip(bounds.tolist(), splits, bounds[1:].tolist()):
        for r, c in frame_matching(boxes[lo:mid], boxes[mid:hi], cfg.iou_threshold):
            key = (track[lo + r], track[mid + c])
            pair_tpa[key] = pair_tpa.get(key, 0) + 1
    pred_present, gt_present = pred_present.tolist(), gt_present.tolist()
    matched_pred = [0] * len(pred_present)
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

    scopes = {"overall": _scores(pair_tpa, range(len(pred_present)), range(len(gt_present)))}
    for split in ("base", "novel"):
        gt_in = {gi for gi, cat in enumerate(gt_cat) if cfg.splits.get(cat) == split}
        pairs = [pair for pair in pair_tpa if pair[1] in gt_in]
        scopes[split] = _scores(pairs, {pi for pi, _ in pairs}, gt_in)
    return EvalReport(**scopes)
