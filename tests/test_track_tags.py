"""A tracks file's tags (label, label_source, scores): the column pass checks the types of every
line's tags but their values once per run of lines with equal tags, so tags that compare equal
but differ in type (1, 1.0 and true) must still be told apart, and the first fault in file
order still named with its class and message."""

import pytest

from test_box_tables import _TRACK, _lines
from test_io_columns import _check_passes, _chunk
from trajkit import io
from trajkit.errors import FormatError

# (file text, the fault it names after the path); the messages were taken from read_tracks
# before the column pass checked a run of equal tags once, with 4 and 256 lines a chunk
FAULTS = [
    (_lines(_TRACK, {2: {"label": True}}), ":3: label must be an int, got True"),
    (_lines(_TRACK, {2: {"label": 1.0}}), ":3: label must be an int, got 1.0"),
    (_lines(_TRACK, {6: {"label": True}}), ":7: label must be an int, got True"),  # in a later chunk
    (_lines(dict(_TRACK, label=0), {2: {"label": False}}), ":3: label must be an int, got False"),
    (_lines(dict(_TRACK, label=True), {}), ":1: label must be an int, got True"),
    (_lines(dict(_TRACK, scores={"det": 1}), {2: {"scores": {"det": True}}}),
     ":3: scores must map names to finite numbers, got {'det': True}"),
    (_lines(_TRACK, {9: {"scores": {"det": False, "cate": 1.0}}, 10: {"label": True}}),
     ":10: scores must map names to finite numbers, got {'det': False, 'cate': 1.0}"),
]


@pytest.mark.parametrize("chunk", [4, 256])
@pytest.mark.parametrize("text, fault", FAULTS, ids=range(len(FAULTS)))
def test_a_tag_equal_to_the_line_before_but_of_another_type_is_refused(tmp_path, text, fault, chunk):
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    with _chunk(chunk), pytest.raises(FormatError) as err:
        io.read_tracks(path)
    assert type(err.value) is FormatError and str(err.value) == f"{path}{fault}"
    with _chunk(chunk):
        _check_passes(path, lambda: io.read_tracks(path), valid=False)


@pytest.mark.parametrize("chunk", [4, 256])
def test_equal_scores_of_int_and_float_load_as_the_first_line_gives_them(tmp_path, chunk):
    # 1 and 1.0 are equal, so no switch; each track's scores are its first line's, as floats
    path = tmp_path / "t.jsonl"
    path.write_text(_lines(dict(_TRACK, scores={"det": 1}), {2: {"scores": {"det": 1.0}}})
                    + _lines(dict(_TRACK, track_id=2, label=0, scores={"cate": 0.5, "det": 1.0}),
                             {5: {"scores": {"cate": 0.5, "det": 1}}}))
    with _chunk(chunk):
        table = io.read_tracks(path)
        assert _check_passes(path, lambda: io.read_tracks(path), valid=True) == 0
    assert table.label == [1, 0] and table.label_source == ["det", "det"]
    assert [[(k, type(v), v) for k, v in s.items()] for s in table.scores] == [
        [("det", float, 1.0)], [("cate", float, 0.5), ("det", float, 1.0)]]
