"""Columnar-native stream generation: views, tiling, profile path.

* A cold ``UpdatePhaseModel.profile()`` never materializes ``Command``
  objects, on the columnar and the periodic engine alike: every design
  profiles with ``ColumnarStream.to_commands`` patched to raise, and
  ``len(artifact.commands)`` stays O(1).
* The layer entry points the outside-in benchmark tracer wraps keep
  their shape (generators return the artifact; ``columnar`` and
  ``dependents`` are ``cached_property`` objects in the base class).
* The ``commands`` view reads, compares and copies like the list it
  stands for.
* Sweep tiling writes most of a full-row sampled stream and stays off
  for streams too short to lock and for full-array streams; the
  builder refuses blocks that are not a shifted repeat.
"""

import copy
from functools import cached_property

import numpy as np
import pytest

from oracle import build_dependents
from repro.dram.columnar import (
    BUILD_FIELDS,
    ColumnarStream,
    StreamBuilder,
    TagCodes,
)
from repro.kernels.aos import AoSKernelGenerator
from repro.kernels.artifact import CommandStreamArtifact, CommandsView
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim.precision import PRECISION_8_32
from repro.optim.registry import build_optimizer
from repro.system.design import DesignPoint
from repro.system.update_model import UpdatePhaseModel

MOMENTUM = build_optimizer("momentum_sgd", {"eta": 0.01})


def _refuse(*args, **kwargs):
    raise AssertionError("Command objects materialized")


class TestColumnarProfilePath:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_cold_profile_never_materializes(self, design, monkeypatch):
        monkeypatch.setattr(ColumnarStream, "to_commands", _refuse)
        model = UpdatePhaseModel(columns_per_stripe=16, engine="columnar")
        profile = model.profile(design, MOMENTUM)
        assert profile.seconds_per_param > 0
        (artifact,) = model._streams.values()
        assert len(artifact.commands) == artifact.stream.n > 0

    @pytest.mark.parametrize("columns", [32, 128])
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_periodic_profile_never_materializes(
        self, design, columns, monkeypatch
    ):
        """Warm samples, their validation and full-stream fallbacks all
        stay columnar."""
        monkeypatch.setattr(ColumnarStream, "to_commands", _refuse)
        model = UpdatePhaseModel(
            columns_per_stripe=columns, engine="periodic"
        )
        assert model.profile(design, MOMENTUM).seconds_per_param > 0

    def test_tracer_hook_points(self):
        for name in ("columnar", "dependents"):
            assert isinstance(
                CommandStreamArtifact.__dict__[name], cached_property
            )
        artifacts = (
            UpdateKernelCompiler().compile(
                MOMENTUM, PRECISION_8_32, columns_per_stripe=4
            ),
            BaselineStreamGenerator().generate(
                MOMENTUM, PRECISION_8_32, columns_per_stripe=4
            ),
            AoSKernelGenerator().generate(
                MOMENTUM, PRECISION_8_32, columns_per_unit=4
            ),
        )
        for artifact in artifacts:
            assert isinstance(artifact, CommandStreamArtifact)
            assert len(artifact.commands) == artifact.total_commands


class TestCommandsView:
    def _kernel(self):
        return UpdateKernelCompiler().compile(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=8
        )

    def test_reads_like_the_materialized_list(self):
        kernel = self._kernel()
        listed = kernel.stream.to_commands()
        view = kernel.commands
        assert isinstance(view, CommandsView)
        assert view == listed and listed == view
        assert view[3] == listed[3]
        assert view[-2:] == listed[-2:]
        assert list(view) == listed
        assert view + [] == listed and [] + view == listed
        assert view.index(listed[5]) == 5

    def test_copies_are_independent_lists(self):
        kernel = self._kernel()
        clone = copy.deepcopy(kernel.commands)
        assert type(clone) is list and clone == kernel.commands
        clone[0].row += 1
        assert clone != kernel.commands
        assert type(copy.copy(kernel.commands)) is list

    def test_dependents_match_the_command_list(self):
        kernel = self._kernel()
        assert kernel.dependents == build_dependents(kernel.commands)


def _tiled_share(monkeypatch, build) -> float:
    tiled = [0]
    original = StreamBuilder.tile

    def counting(self, start, span, copies):
        done = original(self, start, span, copies)
        if done:
            tiled[0] += span * copies
        return done

    monkeypatch.setattr(StreamBuilder, "tile", counting)
    artifact = build()
    return tiled[0] / artifact.stream.n


class TestSweepTiling:
    @pytest.mark.parametrize("build", [
        lambda: UpdateKernelCompiler().compile(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=128
        ),
        lambda: BaselineStreamGenerator().generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=128
        ),
        lambda: AoSKernelGenerator(per_bank=True).generate(
            MOMENTUM, PRECISION_8_32, columns_per_unit=128
        ),
    ], ids=["pim", "baseline", "aos-pb"])
    def test_full_row_streams_are_mostly_tiled(self, monkeypatch, build):
        assert _tiled_share(monkeypatch, build) > 0.85

    @pytest.mark.parametrize("build", [
        lambda: UpdateKernelCompiler().compile(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=4
        ),
        lambda: AoSKernelGenerator().generate(
            MOMENTUM, PRECISION_8_32, columns_per_unit=3
        ),
        lambda: UpdateKernelCompiler().compile(
            MOMENTUM, PRECISION_8_32, n_params=20000
        ),
    ], ids=["short-pim", "short-aos", "n_params"])
    def test_tiling_disengages(self, monkeypatch, build):
        assert _tiled_share(monkeypatch, build) == 0


def _row(**fields):
    return tuple(fields.get(name, 0) for name in BUILD_FIELDS)


class TestStreamBuilder:
    def _two_blocks(self, second_bank=0, second_dep=None):
        """A prologue command then two two-command blocks."""
        b = StreamBuilder()
        tag = b.template("x:", 1)
        b.append(_row(kind=0, tag=tag), ())
        for k, bank in enumerate((0, second_bank)):
            first = b.append(_row(kind=4, bank=bank, col=k, tag=tag,
                                  tag_a=k), (0,))
            dep = first if k == 0 or second_dep is None else second_dep
            b.append(_row(kind=6, bank=bank, col=k, tag=tag, tag_a=k),
                     (dep,))
        return b

    def test_tile_extends_shifted(self):
        b = self._two_blocks()
        assert b.tile(1, 2, 3)
        stream = b.build()
        assert stream.n == 11
        assert stream.col.tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        # Prologue dependency kept, in-block one shifted with the block.
        assert stream.dep_indices.tolist() == [
            0, 1, 0, 3, 0, 5, 0, 7, 0, 9,
        ]
        assert stream.tags[-1] == "x:4"

    def test_tile_refuses_non_repeats(self):
        assert not self._two_blocks(second_bank=1).tile(1, 2, 3)
        assert not self._two_blocks(second_dep=0).tile(1, 2, 3)
        assert not self._two_blocks().tile(0, 2, 3)  # not at the end

    def test_tag_codes_render_like_strings(self):
        codes = TagCodes(
            [("act", 0), ("sr:theta:", 1), ("alu:", 2)],
            np.array([0, 1, 2, -1]), np.array([0, 7, 3, 0]),
            np.array([0, 0, 1, 0]),
        )
        assert codes.decode() == ["act", "sr:theta:7", "alu:3:1", None]
        assert TagCodes([], np.full(2, -1), np.zeros(2),
                        np.zeros(2)).decode() is None
