"""Tests for the declarative request spec (CompareOptions/CompareRequest).

The headline guarantees:

* **one set of defaults** — the old drift (``api.cross_compare_files``
  defaulting ``LaunchConfig()`` while the pipeline defaulted
  ``tight_mbr=True``) is pinned closed by a regression test;
* **one spec behind every door** — the CLI adapter, the service wire
  adapter, and the library constructors produce the *identical*
  ``CompareRequest`` for equivalent inputs;
* **serializability** — ``to_dict``/``from_dict`` round-trip every
  request kind bit-for-bit (polygons as WKT).
"""

from __future__ import annotations

import pytest

from repro.api.options import DEFAULT_OPTIONS, CompareOptions
from repro.api.request import (
    CompareRequest,
    request_from_cli,
    request_from_wire,
)
from repro.errors import RequestError
from repro.geometry.box import Box
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.wkt import polygon_to_wkt


def _square(x: int, y: int, side: int = 4) -> RectilinearPolygon:
    return RectilinearPolygon.from_box(Box(x, y, x + side, y + side))


PAIRS = [(_square(0, 0), _square(2, 2)), (_square(0, 0), _square(100, 100))]


class TestCompareOptionsDefaults:
    def test_hosts_fold_into_cluster_factory_options(self):
        options = CompareOptions(backend="cluster", hosts="h1:9001,h2:9002")
        assert options.resolved_backend_options() == {
            "hosts": "h1:9001,h2:9002"
        }

    def test_hosts_rejected_for_non_cluster_backend(self):
        options = CompareOptions(backend="batch", hosts="h1:9001")
        with pytest.raises(RequestError):
            options.resolved_backend_options()

    def test_validation_fails_at_spec_build_time(self):
        with pytest.raises(RequestError):
            CompareOptions(block_size=2)  # kernel minimum is 4
        with pytest.raises(RequestError):
            CompareOptions(leaf_mode="nope")
        with pytest.raises(RequestError):
            CompareOptions(cache_bytes=0)

    def test_options_round_trip(self):
        options = CompareOptions(
            backend="multiprocess",
            backend_options={"workers": 3},
            block_size=32,
            cache=True,
        )
        assert CompareOptions.from_dict(options.to_dict()) == options
        # Defaults serialize to the empty spec.
        assert DEFAULT_OPTIONS.to_dict() == {}
        assert CompareOptions.from_dict(None) == DEFAULT_OPTIONS

    def test_options_reject_unknown_fields(self):
        # A typo, and specs written for removed knobs (pipeline shape,
        # calibration profile): an old spec fails loudly, naming the
        # field, never silently.
        for spec in (
            {"blocksize": 32},
            {"migration": True},
            {"cost_profile": "p.json"},
        ):
            with pytest.raises(RequestError, match=next(iter(spec))):
                CompareOptions.from_dict(spec)


class TestCompareRequest:
    def test_exactly_one_payload(self):
        with pytest.raises(RequestError):
            CompareRequest()
        with pytest.raises(RequestError):
            CompareRequest(
                pairs=tuple(PAIRS), dir_a="a", dir_b="b"
            )
        with pytest.raises(RequestError):
            CompareRequest(set_a=(PAIRS[0][0],))  # set_b missing

    def test_kinds(self):
        assert CompareRequest.from_pairs(PAIRS).kind == "pairs"
        assert CompareRequest.from_sets([PAIRS[0][0]], [PAIRS[0][1]]).kind \
            == "sets"
        assert CompareRequest.from_files("a", "b").kind == "files"

    @pytest.mark.parametrize("kind", ["pairs", "sets", "files"])
    def test_json_round_trip(self, kind):
        options = CompareOptions(backend="multiprocess", block_size=32)
        if kind == "pairs":
            request = CompareRequest.from_pairs(PAIRS, options)
        elif kind == "sets":
            request = CompareRequest.from_sets(
                [p for p, _ in PAIRS], [q for _, q in PAIRS], options
            )
        else:
            request = CompareRequest.from_files("dir/a", "dir/b", options)
        assert CompareRequest.from_json(request.to_json()) == request

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(RequestError):
            CompareRequest.from_dict({"pairs": "nope"})
        with pytest.raises(RequestError):
            CompareRequest.from_dict({"unknown": 1})
        with pytest.raises(RequestError):
            CompareRequest.from_dict({})
        with pytest.raises(RequestError):
            CompareRequest.from_json("{not json")

    def test_non_polygon_payload_rejected(self):
        with pytest.raises(RequestError):
            CompareRequest.from_pairs([("a", "b")])
        with pytest.raises(RequestError):
            CompareRequest.from_sets(["a"], [PAIRS[0][1]])


class TestFrontDoorEquivalence:
    """CLI flags, wire lines, and library kwargs -> the identical spec."""

    def test_cli_adapter_builds_the_library_request(self):
        via_cli = request_from_cli(
            "results_a",
            "results_b",
            backend="cluster",
            hosts="h1:9001",
        )
        via_library = CompareRequest.from_files(
            "results_a",
            "results_b",
            CompareOptions(backend="cluster", hosts="h1:9001"),
        )
        assert via_cli == via_library

    def test_wire_adapter_builds_the_library_request(self):
        message = {
            "op": "compare",
            "pairs": [
                [polygon_to_wkt(p), polygon_to_wkt(q)] for p, q in PAIRS
            ],
            "config": {"block_size": 32, "tight_mbr": False},
        }
        base = CompareOptions(backend="multiprocess")
        via_wire = request_from_wire(message, base)
        via_library = CompareRequest.from_pairs(
            PAIRS, base.replace(block_size=32, tight_mbr=False)
        )
        assert via_wire == via_library

    def test_wire_adapter_without_config_keeps_base_options(self):
        message = {
            "op": "compare",
            "pairs": [[polygon_to_wkt(p), polygon_to_wkt(q)]
                      for p, q in PAIRS[:1]],
        }
        assert request_from_wire(message).options == CompareOptions()

    def test_wire_adapter_rejects_unknown_config(self):
        message = {"op": "compare", "pairs": [], "config": {"backend": "x"}}
        with pytest.raises(RequestError):
            request_from_wire(message)

    def test_wire_adapter_rejects_malformed_pairs(self):
        with pytest.raises(RequestError):
            request_from_wire({"op": "compare", "pairs": [["one"]]})
        with pytest.raises(RequestError):
            request_from_wire({"op": "compare"})


# ----------------------------------------------------------------------
# Launch parameters of the wrong type are refused at every entry point
# ----------------------------------------------------------------------
def _from_options(fields):
    CompareOptions(**fields)


def _from_service_wire(fields):
    from repro.service.protocol import error_payload

    message = {
        "op": "compare",
        "pairs": [[polygon_to_wkt(p), polygon_to_wkt(q)] for p, q in PAIRS],
        "config": fields,
    }
    try:
        request_from_wire(message)
    except RequestError as exc:
        assert error_payload(exc)["kind"] == "bad-request"
        raise


def _from_cluster_wire(fields):
    from repro.cluster import wire
    from repro.errors import ClusterProtocolError
    from repro.pixelbox.common import LaunchConfig

    try:
        wire.config_from_wire({**wire.config_to_wire(LaunchConfig()), **fields})
    except ClusterProtocolError as exc:
        raise RequestError(str(exc)) from exc


@pytest.mark.parametrize(
    "entry", [_from_options, _from_service_wire, _from_cluster_wire],
    ids=["options", "service-wire", "cluster-wire"],
)
@pytest.mark.parametrize(
    "fields",
    [
        {"block_size": 64.5},  # reached the kernel's modulo
        {"block_size": 64.0},  # cached apart from 64
        {"block_size": True},
        {"pixel_threshold": 100.5},
        {"tight_mbr": "no"},  # ran tight
    ],
    ids=["block-float", "block-integral-float", "block-bool",
         "threshold-float", "tight-str"],
)
def test_launch_parameters_of_the_wrong_type_are_refused(entry, fields):
    with pytest.raises(RequestError, match="must be an? (int|bool)"):
        entry(fields)
