"""``resolve_backend``: one validation gate for every ``backend=`` entry point.

The regression being pinned: backend validation used to be duplicated across
DAM / DAM-NS / HUEM / the CLI, so changing the vocabulary (or improving the
error) meant several edits.  Now every entry point must route through
:func:`repro.core.resolve_backend` — each raises the same ValueError naming the
valid backends — and the CLI's argparse ``choices`` are the same tuple, so the
vocabularies cannot drift.
"""

import pytest

from repro.cli import build_parser
from repro.core import VALID_BACKENDS, resolve_backend
from repro.core.dam import DiscreteDAM, DiscreteDAMNoShrink
from repro.core.domain import GridSpec
from repro.core.huem import DiscreteHUEM

GRID = GridSpec.unit(5)


class TestResolveBackend:
    def test_valid_backends_pass_through(self):
        for backend in VALID_BACKENDS:
            assert resolve_backend(backend) == backend

    def test_error_lists_valid_backends(self):
        with pytest.raises(ValueError) as error:
            resolve_backend("gpu")
        assert "unknown backend 'gpu'" in str(error.value)
        assert "operator, dense" in str(error.value)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: DiscreteDAM(GRID, 2.0, backend="gpu"), id="dam"),
            pytest.param(
                lambda: DiscreteDAMNoShrink(GRID, 2.0, backend="gpu"), id="dam-ns"
            ),
            pytest.param(lambda: DiscreteHUEM(GRID, 2.0, backend="gpu"), id="huem"),
        ],
    )
    def test_every_entry_point_rejects_unknown_backend(self, build):
        with pytest.raises(ValueError, match="valid backends:"):
            build()

    @pytest.mark.parametrize("command", ["estimate", "query", "stream", "serve"])
    def test_cli_backend_choices_are_the_shared_tuple(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--backend", "gpu"])
        message = capsys.readouterr().err
        assert "invalid choice: 'gpu'" in message
        for backend in VALID_BACKENDS:
            assert backend in message
