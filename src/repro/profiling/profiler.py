"""Profiling runs: execute a module and collect a :class:`ProfileData`."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.ir.module import Module
from repro.profiling.profile_data import ProfileData
from repro.runtime.interpreter import Interpreter, StepEvent, Stops


class _BlockProfiler(Stops):
    """Counts block entries, intra-frame edges and function entries.

    A block is entered whenever its first instruction executes; the
    edge runs from the block the same frame entered last (a self-loop
    when it is the same block), and a frame's first block counts a
    function entry.  The fast engine reports entries from decoded code
    (``counts_blocks``) and the reference tier through ``on_step``;
    ``total_instructions`` is the run's event count.
    """

    counts_blocks = True

    def __init__(self, profile: ProfileData) -> None:
        self.profile = profile
        # frame id -> label of the block the frame last entered
        self._last_block: Dict[int, str] = {}

    def on_step(self, interp: Interpreter, event: StepEvent) -> None:
        if event.inst_index == 0:
            self.block_entry(event.frame_id, event.func, event.block)

    def block_entry(self, frame_id: int, func: str, label: str) -> None:
        profile = self.profile
        profile.record_block(func, label)
        prev = self._last_block.get(frame_id)
        if prev is None:
            profile.record_call(func)
        else:
            profile.record_edge(func, prev, label)
        self._last_block[frame_id] = label


def _profiled_run(module, profile, function, args, output_objects,
                  max_steps, externals):
    interp = Interpreter(module, max_steps=max_steps, externals=externals,
                         stops=_BlockProfiler(profile))
    result = interp.run(function, args, output_objects=output_objects)
    profile.total_instructions += result.events
    return result


def profile_module(
    module: Module,
    function: str = "main",
    args: Sequence = (),
    runs: int = 1,
    max_steps: int = 20_000_000,
    externals=None,
) -> ProfileData:
    """Execute ``function`` ``runs`` times and return the merged profile."""
    profile = ProfileData()
    for _ in range(runs):
        _profiled_run(module, profile, function, args, (), max_steps,
                      externals)
    return profile


def profile_and_result(
    module: Module,
    function: str = "main",
    args: Sequence = (),
    output_objects: Sequence[str] = (),
    max_steps: int = 20_000_000,
    externals=None,
):
    """One profiling run returning both the profile and the exec result."""
    profile = ProfileData()
    result = _profiled_run(module, profile, function, args, output_objects,
                           max_steps, externals)
    return profile, result
