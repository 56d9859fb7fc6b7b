"""One frame's ``DetectionRecord``s stacked into an ``io.DetectionFrame``, for tests that
build detections by hand."""

import numpy as np

from trajkit import io


def block(records, frame=0):
    """The records' columns, checked for nothing: the block's frame is the first record's, or
    ``frame`` when there are none, and the embeddings are stacked as they come."""
    column = (lambda key: np.array([getattr(r, key) for r in records], dtype=np.float64))
    return io.DetectionFrame(records[0].frame if records else frame, column("bbox").reshape(-1, 4),
                             column("confidence"), io._int_column([r.category_id for r in records]),
                             column("category_score"),
                             np.stack([r.embedding for r in records]) if records else np.zeros((0, 0), np.float32))
