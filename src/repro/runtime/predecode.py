"""The pre-decoded template-dispatch interpreter (the fast engine).

The reference engine re-decodes every instruction on every dynamic step:
dictionary dispatch on the opcode, ``isinstance`` tests on each operand,
a fresh :class:`StepEvent` per instruction whether or not anyone is
listening.  This module removes all of that by translating each
``Function`` **once** into a flat array of bound Python closures — a
"template JIT" in the classic threaded-code sense:

* **closure templates** — one factory per opcode specializes a closure
  at translate time, capturing resolved registers, constants, jump
  targets, external-call handlers, and ``dynamic_cost`` in its cells.
  Executing an instruction is then one indirect call, with zero decode
  work and zero event allocation;
* **superinstructions** — the two hottest pairs, compare+branch (every
  loop latch) and checkpoint+store (every instrumented store, by
  construction adjacent and same-address), fuse into single closures
  that charge exactly the events/costs of the unfused sequence;
* **event-indexed stops** — a :class:`~repro.runtime.interpreter.
  Stops` observer (a fault-injection trial, a profiling run) and the
  thread scheduler name the next step they must see; decoded code runs
  up to it, and :class:`FastInterpreter` executes that step with the
  *inherited* reference ``_step``, so what an observer sees is the
  reference behaviour by definition.  ``spawn``, ``join`` and a
  thread's final ``ret`` always take a reference step, and so do
  ``set_recovery_ptr``, ``clear_recovery_ptr`` and ``ret`` while the
  observer watches regions (a rollback is active);
* **a hook tier** — whenever a generic ``pre_step``/``post_step`` hook
  is installed (trace capture, symptoms, replay detection) or a
  redirect is pending, every step takes the reference ``_step``.
  Hooks may come and go mid-run; the engine re-checks whenever decoded
  code leaves its loop;
* **decoded profiling** — a profiling observer gets a variant of the
  decoded program whose block heads report each block entry, so
  profiles are collected at decoded speed;
* **a decode cache** — decoded programs are memoized per ``Module``
  object (validated by a cheap structural signature) and shared across
  content-equal copies via the pipeline's module fingerprint, so a
  campaign forking N workers decodes each module once per process, not
  once per trial.

The non-negotiable contract: observable behaviour is **bit-identical**
to :class:`ReferenceInterpreter` — dynamic events, cost /
``app_cost`` / ``instrumentation_cost``, trap reasons and indices,
``ExecutionLimit`` timing, recovery/rollback state, ``peak_ckpt_words``,
memory images, and resume positions after a trap.  Every closure
therefore replicates the reference ordering exactly: counters charge
*after* a successful execute (a trapping instruction charges nothing),
``Trap.event_index`` carries the pre-increment event counter, and
``frame.ip`` always names the trapping instruction when an exception
escapes.  ``tests/test_engine_equivalence.py`` is the harness that
holds both engines to this contract.
"""

from __future__ import annotations

import operator
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.types import wrap_int
from repro.ir.values import Constant, MemoryObject, MemRef, VirtualRegister
from repro.pipeline.manager import module_fingerprint
from repro.runtime.interpreter import (
    NO_STOP,
    ExecResult,
    ExecutionLimit,
    ReferenceInterpreter,
    StepEvent,
    Stops,
    Trap,
    _default_external,
)
from repro.runtime.memory import MachineMemory, MemoryError_, Pointer

import math

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63
_INT_WRAP = 1 << 64

#: Integer ops whose reference semantics are ``wrap_int(raw(lhs, rhs))``:
#: safe to inline with a mask + sign-extend when both operands are
#: plain ints (bools and out-of-range externals fall back).  Division
#: and remainder stay on the slow path (traps, float-based truncation);
#: min/max stay off because the reference does *not* wrap their result.
_INT_FAST = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: a << (b & 63),
    "lshr": lambda a, b: (a & _INT_MASK) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
}

#: Float ops that are a bare Python function when both operands are
#: already floats (the reference's ``float()`` coercions are identity).
#: ``fdiv`` is handled separately (division-by-zero trap).
_FLOAT_FAST = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fmin": min,
    "fmax": max,
}

#: Ordered predicates; ``eq``/``ne`` are separate because they are
#: exact for pointers too and need no guard at all.
_REL = {
    "feq": operator.eq,
    "fne": operator.ne,
    "slt": operator.lt,
    "flt": operator.lt,
    "sle": operator.le,
    "fle": operator.le,
    "sgt": operator.gt,
    "fgt": operator.gt,
    "sge": operator.ge,
    "fge": operator.ge,
}


# ----------------------------------------------------------------------
# slow-path helpers shared by the templates (exact reference semantics)
# ----------------------------------------------------------------------


def _slow_cmp(interp, pred: str, lhs, rhs) -> int:
    if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
        if pred == "eq":
            return int(lhs == rhs)
        if pred == "ne":
            return int(lhs != rhs)
        raise Trap(f"pointer compare {pred}", interp.events)
    if pred in ("eq", "feq"):
        return int(lhs == rhs)
    if pred in ("ne", "fne"):
        return int(lhs != rhs)
    if pred in ("slt", "flt"):
        return int(lhs < rhs)
    if pred in ("sle", "fle"):
        return int(lhs <= rhs)
    if pred in ("sgt", "fgt"):
        return int(lhs > rhs)
    if pred in ("sge", "fge"):
        return int(lhs >= rhs)
    raise Trap(f"unhandled predicate {pred}", interp.events)


def _apply_unop(interp, op: str, src):
    if isinstance(src, Pointer):
        raise Trap(f"unary {op} on pointer", interp.events)
    if op == "neg":
        return wrap_int(-int(src))
    if op == "not":
        return wrap_int(~int(src))
    if op == "fneg":
        return -float(src)
    if op == "sitofp":
        return float(int(src))
    if op == "fptosi":
        return wrap_int(int(float(src)))
    if op == "fsqrt":
        if float(src) < 0:
            raise Trap("sqrt of negative", interp.events)
        return math.sqrt(float(src))
    if op == "fabs":
        return abs(float(src))
    raise Trap(f"unhandled unop {op}", interp.events)


def _bump_ckpt_words(interp, frame, region_id: int, log: list, delta: int) -> None:
    """Incrementally maintained version of ``_track_ckpt``.

    The reference recounts the whole undo log on every push — O(n²)
    per region.  The fast engine keeps, per ``(frame, region)``, the log
    it counted, that log's length and its word count, and extends the
    count only when the log is the same list with exactly one more
    record; otherwise (a reference-tier step pushed, or replaced the
    log) it recounts.
    """
    key = (frame.id, region_id)
    entry = interp._ckpt_words.get(key)
    size = len(log)
    if entry is not None and entry[0] is log and entry[1] == size - 1:
        words = entry[2] + delta
    else:
        words = sum(2 if r[0] == "mem" else 1 for r in log)
    interp._ckpt_words[key] = (log, size, words)
    peaks = interp.peak_ckpt_words
    if words > peaks.get(region_id, 0):
        peaks[region_id] = words


# ----------------------------------------------------------------------
# operand and address specialization
# ----------------------------------------------------------------------


def _operand(operand) -> Callable:
    """An evaluator closure: constant folded, or one dict probe."""
    if isinstance(operand, Constant):
        value = operand.value

        def const_eval(frame, _value=value):
            return _value

        return const_eval

    def reg_eval(frame, _reg=operand):
        try:
            return frame.regs[_reg]
        except KeyError:
            return 0

    return reg_eval


def _resolver(ref: MemRef) -> Callable:
    """Specialized ``_resolve``: returns ``(name, index)`` or raises Trap.

    All four shapes (global/stack base × constant/register index) get a
    dedicated closure with the Trap message precomputed; pointer-typed
    register bases are checked exactly like the reference.
    """
    base = ref.base
    index = ref.index
    if isinstance(index, Constant):
        cidx = index.value
        if isinstance(cidx, float):
            cidx = int(cidx)
        ireg = None
    else:
        cidx = None
        ireg = index

    if isinstance(base, MemoryObject):
        if base.kind == "stack":
            sname = base.name
            missing = f"stack object {sname} not in frame"
            if ireg is None:

                def resolve(interp, frame):
                    name = frame.stack_instances.get(sname)
                    if name is None:
                        raise Trap(missing, interp.events)
                    return name, cidx

            else:

                def resolve(interp, frame):
                    name = frame.stack_instances.get(sname)
                    if name is None:
                        raise Trap(missing, interp.events)
                    idx = frame.regs.get(ireg, 0)
                    if isinstance(idx, float):
                        idx = int(idx)
                    return name, idx

            return resolve
        gname = base.name
        if ireg is None:
            pair = (gname, cidx)

            def resolve(interp, frame, _pair=pair):
                return _pair

        else:

            def resolve(interp, frame):
                idx = frame.regs.get(ireg, 0)
                if isinstance(idx, float):
                    idx = int(idx)
                return gname, idx

        return resolve

    breg = base
    notptr = f"indirect access through non-pointer {base}"
    if ireg is None:

        def resolve(interp, frame):
            value = frame.regs.get(breg)
            if not isinstance(value, Pointer):
                raise Trap(notptr, interp.events)
            return value.obj, value.offset + cidx

    else:

        def resolve(interp, frame):
            value = frame.regs.get(breg)
            if not isinstance(value, Pointer):
                raise Trap(notptr, interp.events)
            idx = frame.regs.get(ireg, 0)
            if isinstance(idx, float):
                idx = int(idx)
            return value.obj, value.offset + idx

    return resolve


# ----------------------------------------------------------------------
# opcode templates
#
# Every template returns a closure ``step(interp, frame) -> next_ip``.
# The sentinel ``-1`` leaves the block loop entirely (frame switch,
# call, external, return, or a parked step).  Closures that can raise
# set ``frame.ip`` to their own index first, so a trap always resumes
# (or retries) at exactly the reference position.
# ----------------------------------------------------------------------


def _park(interp, frame, idx: int) -> int:
    """Leave decoded code *before* this instruction, and make it a stop.

    The closure executes nothing: ``frame.ip`` names the instruction and
    the engine's next stop is now, so the reference ``_step`` executes
    it with full semantics (and the observer and scheduler see it).
    """
    frame.ip = idx
    interp._stop = interp.events
    return -1


def _stop_mid_pair(interp, frame, second: int) -> int:
    """The budget or a stop fell between the halves of a fused pair.

    ``frame.ip`` parks on the second half; an exhausted budget raises
    like the reference, a stop leaves the decoded loop.
    """
    frame.ip = second
    if interp.events >= interp.max_steps:
        raise ExecutionLimit(f"exceeded {interp.max_steps} dynamic instructions")
    return -1


def _t_binop(inst, idx: int, nxt: int):
    op, dest, dc = inst.op, inst.dest, inst.dynamic_cost
    lhs, rhs = inst.lhs, inst.rhs
    lconst = isinstance(lhs, Constant)
    rconst = isinstance(rhs, Constant)

    fast_int = _INT_FAST.get(op)
    if fast_int is not None:
        # Shape-specialized: operand fetches are inlined (no nested
        # evaluator call).  A constant operand is pre-coerced exactly
        # the way the reference would coerce it (``int()`` truncation),
        # so only the register operand needs a run-time type guard.
        if not lconst and not rconst:

            def step(interp, frame, _f=fast_int, _l=lhs, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                    b = regs[_r]
                except KeyError:
                    a = regs.get(_l, 0)
                    b = regs.get(_r, 0)
                if type(a) is int and type(b) is int:
                    v = _f(a, b) & _INT_MASK
                    if v & _INT_SIGN:
                        v -= _INT_WRAP
                    regs[_d] = v
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, b)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if not lconst and rconst and type(rhs.value) is int:
            rv = rhs.value

            def step(interp, frame, _f=fast_int, _l=lhs, _rv=rv,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                except KeyError:
                    a = 0
                if type(a) is int:
                    v = _f(a, _rv) & _INT_MASK
                    if v & _INT_SIGN:
                        v -= _INT_WRAP
                    regs[_d] = v
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, _rv)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if lconst and not rconst and type(lhs.value) is int:
            lv = lhs.value

            def step(interp, frame, _f=fast_int, _lv=lv, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    b = regs[_r]
                except KeyError:
                    b = 0
                if type(b) is int:
                    v = _f(_lv, b) & _INT_MASK
                    if v & _INT_SIGN:
                        v -= _INT_WRAP
                    regs[_d] = v
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, _lv, b)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step

    fast_float = _FLOAT_FAST.get(op)
    if fast_float is not None:
        if not lconst and not rconst:

            def step(interp, frame, _f=fast_float, _l=lhs, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                    b = regs[_r]
                except KeyError:
                    a = regs.get(_l, 0)
                    b = regs.get(_r, 0)
                if type(a) is float and type(b) is float:
                    regs[_d] = _f(a, b)
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, b)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if not lconst and rconst and isinstance(rhs.value, (int, float)) \
                and not isinstance(rhs.value, bool):
            rv = float(rhs.value)

            def step(interp, frame, _f=fast_float, _l=lhs, _rv=rv,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                except KeyError:
                    a = 0
                if type(a) is float:
                    regs[_d] = _f(a, _rv)
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, rhs.value)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step

    if op == "fdiv" and not lconst and not rconst:

        def step(interp, frame, _l=lhs, _r=rhs, _d=dest, _dc=dc, _n=nxt):
            regs = frame.regs
            try:
                a = regs[_l]
                b = regs[_r]
            except KeyError:
                a = regs.get(_l, 0)
                b = regs.get(_r, 0)
            if type(a) is float and type(b) is float:
                if b == 0.0:
                    frame.ip = idx
                    raise Trap("float division by zero", interp.events)
                regs[_d] = a / b
            else:
                frame.ip = idx
                regs[_d] = interp._apply_binop(op, a, b)
            interp.events += 1
            interp.cost += _dc
            return _n

        return step

    if op in ("sdiv", "srem") and not lconst:
        # The reference divides through floats (``int(lhs / rhs)``) to
        # truncate toward zero; replicate that expression exactly so
        # large-magnitude operands round (or overflow) identically.
        sdiv = op == "sdiv"
        zmsg = ("integer division by zero" if sdiv
                else "integer remainder by zero")
        if not rconst:

            def step(interp, frame, _l=lhs, _r=rhs, _d=dest, _dc=dc,
                     _n=nxt, _sd=sdiv, _z=zmsg):
                regs = frame.regs
                try:
                    a = regs[_l]
                    b = regs[_r]
                except KeyError:
                    a = regs.get(_l, 0)
                    b = regs.get(_r, 0)
                if type(a) is int and type(b) is int:
                    if b == 0:
                        frame.ip = idx
                        raise Trap(_z, interp.events)
                    try:
                        q = int(a / b)
                    except BaseException:
                        frame.ip = idx
                        raise
                    v = (q if _sd else a - q * b) & _INT_MASK
                    if v & _INT_SIGN:
                        v -= _INT_WRAP
                    regs[_d] = v
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, b)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if type(rhs.value) is int and rhs.value != 0:
            rv = rhs.value

            def step(interp, frame, _l=lhs, _rv=rv, _d=dest, _dc=dc,
                     _n=nxt, _sd=sdiv):
                regs = frame.regs
                try:
                    a = regs[_l]
                except KeyError:
                    a = 0
                if type(a) is int:
                    try:
                        q = int(a / _rv)
                    except BaseException:
                        frame.ip = idx
                        raise
                    v = (q if _sd else a - q * _rv) & _INT_MASK
                    if v & _INT_SIGN:
                        v -= _INT_WRAP
                    regs[_d] = v
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, _rv)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step

    if op in ("min", "max"):
        # The reference does NOT wrap min/max results, so the fast path
        # must not either (an unwrapped wide value from an external
        # call passes through unchanged on both engines).
        pick = min if op == "min" else max
        if not lconst and not rconst:

            def step(interp, frame, _f=pick, _l=lhs, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                    b = regs[_r]
                except KeyError:
                    a = regs.get(_l, 0)
                    b = regs.get(_r, 0)
                if type(a) is int and type(b) is int:
                    regs[_d] = _f(a, b)
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, b)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if not lconst and rconst and type(rhs.value) is int:
            rv = rhs.value

            def step(interp, frame, _f=pick, _l=lhs, _rv=rv,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                except KeyError:
                    a = 0
                if type(a) is int:
                    regs[_d] = _f(a, _rv)
                else:
                    frame.ip = idx
                    regs[_d] = interp._apply_binop(op, a, _rv)
                interp.events += 1
                interp.cost += _dc
                return _n

            return step

    # Everything else (constant-constant shapes, float-typed constants
    # in int ops, constant-zero divisors, ...) replays the reference
    # arithmetic verbatim.
    get_l = _operand(lhs)
    get_r = _operand(rhs)

    def step(interp, frame):
        a = get_l(frame)
        b = get_r(frame)
        frame.ip = idx
        frame.regs[dest] = interp._apply_binop(op, a, b)
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_unop(inst, idx: int, nxt: int):
    op, dest, dc = inst.op, inst.dest, inst.dynamic_cost
    get_s = _operand(inst.src)

    def step(interp, frame):
        frame.ip = idx
        frame.regs[dest] = _apply_unop(interp, op, get_s(frame))
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_cmp(inst, idx: int, nxt: int):
    pred, dest, dc = inst.pred, inst.dest, inst.dynamic_cost
    lhs, rhs = inst.lhs, inst.rhs
    lconst = isinstance(lhs, Constant)
    rconst = isinstance(rhs, Constant)
    # ``eq``/``ne`` are exact for every operand kind (pointers
    # included), so they need no guard at all.
    if pred in ("eq", "ne"):
        eq = pred == "eq"
        if not lconst and not rconst:

            def step(interp, frame, _l=lhs, _r=rhs, _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    r = regs[_l] == regs[_r]
                except KeyError:
                    r = regs.get(_l, 0) == regs.get(_r, 0)
                regs[_d] = 1 if r == eq else 0
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if not lconst and rconst:
            rv = rhs.value

            def step(interp, frame, _l=lhs, _rv=rv, _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    r = regs[_l] == _rv
                except KeyError:
                    r = 0 == _rv
                regs[_d] = 1 if r == eq else 0
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        get_l = _operand(lhs)
        get_r = _operand(rhs)

        def step(interp, frame, _l=get_l, _r=get_r, _d=dest, _dc=dc, _n=nxt):
            r = _l(frame) == _r(frame)
            frame.regs[_d] = 1 if r == eq else 0
            interp.events += 1
            interp.cost += _dc
            return _n

        return step
    rel = _REL.get(pred)
    if rel is not None:
        if not lconst and not rconst:

            def step(interp, frame, _f=rel, _l=lhs, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                    b = regs[_r]
                except KeyError:
                    a = regs.get(_l, 0)
                    b = regs.get(_r, 0)
                if isinstance(a, Pointer) or isinstance(b, Pointer):
                    frame.ip = idx
                    regs[_d] = _slow_cmp(interp, pred, a, b)
                else:
                    regs[_d] = 1 if _f(a, b) else 0
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if not lconst and rconst:
            rv = rhs.value

            def step(interp, frame, _f=rel, _l=lhs, _rv=rv,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    a = regs[_l]
                except KeyError:
                    a = 0
                if isinstance(a, Pointer):
                    frame.ip = idx
                    regs[_d] = _slow_cmp(interp, pred, a, _rv)
                else:
                    regs[_d] = 1 if _f(a, _rv) else 0
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        if lconst and not rconst:
            lv = lhs.value

            def step(interp, frame, _f=rel, _lv=lv, _r=rhs,
                     _d=dest, _dc=dc, _n=nxt):
                regs = frame.regs
                try:
                    b = regs[_r]
                except KeyError:
                    b = 0
                if isinstance(b, Pointer):
                    frame.ip = idx
                    regs[_d] = _slow_cmp(interp, pred, _lv, b)
                else:
                    regs[_d] = 1 if _f(_lv, b) else 0
                interp.events += 1
                interp.cost += _dc
                return _n

            return step
        lv, rv = lhs.value, rhs.value

        def step(interp, frame, _f=rel, _d=dest, _dc=dc, _n=nxt):
            frame.regs[_d] = 1 if _f(lv, rv) else 0
            interp.events += 1
            interp.cost += _dc
            return _n

        return step
    get_l = _operand(lhs)
    get_r = _operand(rhs)

    def step(interp, frame):
        frame.ip = idx
        frame.regs[dest] = _slow_cmp(interp, pred, get_l(frame), get_r(frame))
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_select(inst, idx: int, nxt: int):
    dest, dc = inst.dest, inst.dynamic_cost
    get_c = _operand(inst.cond)
    get_t = _operand(inst.if_true)
    get_f = _operand(inst.if_false)

    def step(interp, frame):
        c = get_c(frame)
        if isinstance(c, Pointer) or c:
            frame.regs[dest] = get_t(frame)
        else:
            frame.regs[dest] = get_f(frame)
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_mov(inst, idx: int, nxt: int):
    dest, dc = inst.dest, inst.dynamic_cost
    if isinstance(inst.src, Constant):
        value = inst.src.value

        def step(interp, frame, _v=value):
            frame.regs[dest] = _v
            interp.events += 1
            interp.cost += dc
            return nxt

        return step
    src = inst.src

    def step(interp, frame):
        regs = frame.regs
        try:
            regs[dest] = regs[src]
        except KeyError:
            regs[dest] = 0
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_addrof(inst, idx: int, nxt: int):
    dest, dc = inst.dest, inst.dynamic_cost
    resolve = _resolver(inst.ref)

    def step(interp, frame):
        try:
            name, index = resolve(interp, frame)
        except BaseException:
            frame.ip = idx
            raise
        frame.regs[dest] = Pointer(name, index)
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_load(inst, idx: int, nxt: int):
    dest, dc = inst.dest, inst.dynamic_cost
    ref = inst.ref
    base, index = ref.base, ref.index
    # Direct global with a register index — the hot array-access shape.
    # The cell map is probed inline (``interp._mem_cells`` aliases
    # ``memory._cells``); trap messages replicate ``MachineMemory``
    # verbatim.  Globals are never released, but the dead-object check
    # is kept for exactness.
    if isinstance(base, MemoryObject) and base.kind == "global":
        gname = base.name
        if isinstance(index, Constant):
            gidx = index.value
            if isinstance(gidx, float):
                gidx = int(gidx)

            def step(interp, frame, _g=gname, _i=gidx,
                     _d=dest, _dc=dc, _n=nxt):
                try:
                    cells = interp._mem_cells[_g]
                    if 0 <= _i < len(cells):
                        frame.regs[_d] = cells[_i]
                    else:
                        raise Trap(
                            f"read out of bounds: {_g}[{_i}] "
                            f"(size {len(cells)})",
                            interp.events,
                        )
                except KeyError:
                    frame.ip = idx
                    raise Trap(
                        f"read from dead object {_g!r}", interp.events
                    ) from None
                except BaseException:
                    frame.ip = idx
                    raise
                interp.events += 1
                interp.cost += _dc
                return _n

            return step

        def step(interp, frame, _g=gname, _r=index, _d=dest, _dc=dc, _n=nxt):
            try:
                i = frame.regs[_r]
            except KeyError:
                i = 0
            try:
                if isinstance(i, float):
                    i = int(i)
                cells = interp._mem_cells[_g]
                if 0 <= i < len(cells):
                    frame.regs[_d] = cells[i]
                else:
                    raise Trap(
                        f"read out of bounds: {_g}[{i}] (size {len(cells)})",
                        interp.events,
                    )
            except KeyError:
                frame.ip = idx
                raise Trap(
                    f"read from dead object {_g!r}", interp.events
                ) from None
            except BaseException:
                frame.ip = idx
                raise
            interp.events += 1
            interp.cost += _dc
            return _n

        return step

    resolve = _resolver(ref)

    def step(interp, frame, _resolve=resolve, _d=dest, _dc=dc, _n=nxt):
        try:
            name, i = _resolve(interp, frame)
            cells = interp._mem_cells.get(name)
            if cells is None:
                raise Trap(f"read from dead object {name!r}", interp.events)
            if 0 <= i < len(cells):
                frame.regs[_d] = cells[i]
            else:
                raise Trap(
                    f"read out of bounds: {name}[{i}] (size {len(cells)})",
                    interp.events,
                )
        except BaseException:
            frame.ip = idx
            raise
        interp.events += 1
        interp.cost += _dc
        return _n

    return step


def _t_store(inst, idx: int, nxt: int):
    dc = inst.dynamic_cost
    ref, value = inst.ref, inst.value
    base, index = ref.base, ref.index
    vconst = isinstance(value, Constant)
    if isinstance(base, MemoryObject) and base.kind == "global" \
            and not isinstance(index, Constant) and not vconst:

        def step(interp, frame, _g=base.name, _r=index, _v=value,
                 _dc=dc, _n=nxt):
            regs = frame.regs
            try:
                i = regs[_r]
            except KeyError:
                i = 0
            try:
                if isinstance(i, float):
                    i = int(i)
                cells = interp._mem_cells[_g]
                if 0 <= i < len(cells):
                    try:
                        cells[i] = regs[_v]
                    except KeyError:
                        cells[i] = 0
                else:
                    raise Trap(
                        f"write out of bounds: {_g}[{i}] (size {len(cells)})",
                        interp.events,
                    )
            except KeyError:
                frame.ip = idx
                raise Trap(
                    f"write to dead object {_g!r}", interp.events
                ) from None
            except BaseException:
                frame.ip = idx
                raise
            interp.events += 1
            interp.cost += _dc
            return _n

        return step

    resolve = _resolver(ref)
    get_v = _operand(value)

    def step(interp, frame, _resolve=resolve, _v=get_v, _dc=dc, _n=nxt):
        try:
            name, i = _resolve(interp, frame)
            cells = interp._mem_cells.get(name)
            if cells is None:
                raise Trap(f"write to dead object {name!r}", interp.events)
            if 0 <= i < len(cells):
                cells[i] = _v(frame)
            else:
                raise Trap(
                    f"write out of bounds: {name}[{i}] (size {len(cells)})",
                    interp.events,
                )
        except BaseException:
            frame.ip = idx
            raise
        interp.events += 1
        interp.cost += _dc
        return _n

    return step


def _t_alloc(inst, idx: int, nxt: int, func_name: str, label: str):
    dest, dc = inst.dest, inst.dynamic_cost
    get_s = _operand(inst.size)
    site = f"heap:{func_name}:{label}"

    def step(interp, frame):
        try:
            size = get_s(frame)
            if isinstance(size, float):
                size = int(size)
            name = interp.memory.allocate_heap(int(size), site)
        except MemoryError_ as exc:
            frame.ip = idx
            raise Trap(str(exc), interp.events) from None
        except BaseException:
            frame.ip = idx
            raise
        frame.regs[dest] = Pointer(name, 0)
        interp.events += 1
        interp.cost += dc
        return nxt

    return step


def _t_br(inst, idx: int, targets: Dict[str, int]):
    dc = inst.dynamic_cost
    if_true, if_false = inst.if_true, inst.if_false
    ti, fi = targets[if_true], targets[if_false]
    if isinstance(inst.cond, VirtualRegister):
        creg = inst.cond

        def step(interp, frame, _c=creg, _t=if_true, _e=if_false,
                 _ti=ti, _fi=fi):
            try:
                c = frame.regs[_c]
            except KeyError:
                c = 0
            interp.events += 1
            interp.cost += dc
            frame.ip = 0
            if isinstance(c, Pointer) or c:
                frame.block = _t
                return _ti
            frame.block = _e
            return _fi

        return step
    get_c = _operand(inst.cond)

    def step(interp, frame, _c=get_c, _ti=ti, _fi=fi):
        c = _c(frame)
        interp.events += 1
        interp.cost += dc
        frame.ip = 0
        if isinstance(c, Pointer) or c:
            frame.block = if_true
            return _ti
        frame.block = if_false
        return _fi

    return step


def _t_jmp(inst, idx: int, targets: Dict[str, int]):
    dc = inst.dynamic_cost
    target = inst.target
    ti = targets[target]

    def step(interp, frame, _ti=ti):
        frame.block = target
        frame.ip = 0
        interp.events += 1
        interp.cost += dc
        return _ti

    return step


def _t_call(inst, idx: int, nxt: int, module: Module, func_name: str, label: str):
    dest, dc = inst.dest, inst.dynamic_cost
    arg_evals = tuple(_operand(a) for a in inst.args)
    callee = module.get_function(inst.callee)
    ipn = idx + 1  # block-relative resume position (frame.ip units)
    if callee is not None:
        # The callee is looked up in the running module, never captured:
        # a decoded program serves every content-equal copy of its
        # module, and the copy it was decoded from may since have been
        # transformed in place.
        def step(interp, frame, _name=inst.callee, _args=arg_evals):
            args = [g(frame) for g in _args]
            frame.ip = ipn  # the reference advances before the push
            interp._push_frame(interp.module.functions[_name], args,
                               ret_dest=dest)
            interp.events += 1
            interp.cost += dc
            return -1

        return step

    name = inst.callee
    inst_ref = inst

    def step(interp, frame, _args=arg_evals):
        args = [g(frame) for g in _args]
        frame.ip = ipn
        handler = interp.externals.get(name, _default_external)
        # External code may observe the interpreter; settle the lazily
        # maintained app_cost before handing over control.
        interp.app_cost = interp.cost - interp.instrumentation_cost
        result = handler(args)
        if dest is not None:
            frame.regs[dest] = result if result is not None else 0
        interp.events += 1
        interp.cost += dc
        # External code can install hooks or request recovery mid-call;
        # mirror the tail of the reference ``_step`` before leaving the
        # fast loop so this step's observable effects match exactly.
        post = interp.post_step
        if post is not None:
            post(interp, StepEvent(
                index=interp.events - 1,
                func=func_name,
                block=label,
                inst_index=idx,
                inst=inst_ref,
                frame_id=frame.id,
                loads=[],
                stores=[],
            ))
        if interp._pending_redirect is not None and interp.frames:
            top = interp.frames[-1]
            top.block = interp._pending_redirect
            top.ip = 0
            interp._pending_redirect = None
        return -1

    return step


def _t_ret(inst, idx: int, nxt: int):
    # A thread's final ret is a reference step (the scheduler settles
    # and switches there), as is every ret while regions are watched
    # (it may pop the frame that owns an active rollback).
    dc = inst.dynamic_cost
    if inst.value is None:

        def step(interp, frame):
            if interp._watch or len(interp.frames) == 1:
                return _park(interp, frame, idx)
            interp._pop_frame(None)
            interp.events += 1
            interp.cost += dc
            return -1

        return step
    get_v = _operand(inst.value)

    def step(interp, frame):
        if interp._watch or len(interp.frames) == 1:
            return _park(interp, frame, idx)
        interp._pop_frame(get_v(frame))
        interp.events += 1
        interp.cost += dc
        return -1

    return step


def _t_set_recovery_ptr(inst, idx: int, nxt: int):
    rid, dc = inst.region_id, inst.dynamic_cost
    ptr = (inst.region_id, inst.recovery_label)

    def step(interp, frame):
        if interp._watch:
            return _park(interp, frame, idx)
        frame.recovery_ptr = ptr
        frame.region_ckpts[rid] = []
        guard_cost = interp.guard.on_publish(frame)
        if guard_cost:
            interp.cost += guard_cost
            interp.instrumentation_cost += guard_cost
        interp._ckpt_words.pop((frame.id, rid), None)
        interp.events += 1
        interp.cost += dc
        interp.instrumentation_cost += dc
        return nxt

    return step


def _t_clear_recovery_ptr(inst, idx: int, nxt: int):
    rid, dc = inst.region_id, inst.dynamic_cost

    def step(interp, frame):
        if interp._watch:
            return _park(interp, frame, idx)
        if frame.recovery_ptr is not None and frame.recovery_ptr[0] == rid:
            frame.recovery_ptr = None
            frame.region_ckpts[rid] = []
            guard_cost = interp.guard.on_clear(frame, rid)
            if guard_cost:
                interp.cost += guard_cost
                interp.instrumentation_cost += guard_cost
            interp._ckpt_words.pop((frame.id, rid), None)
        interp.events += 1
        interp.cost += dc
        interp.instrumentation_cost += dc
        return nxt

    return step


def _t_ckpt_reg(inst, idx: int, nxt: int):
    rid, reg, dc = inst.region_id, inst.reg, inst.dynamic_cost

    def step(interp, frame):
        record = ("reg", reg, frame.regs.get(reg, 0))
        log = frame.region_ckpts.get(rid)
        if log is None:
            log = frame.region_ckpts[rid] = []
        log.append(record)
        guard_cost = interp.guard.on_push(frame, rid, record)
        if guard_cost:
            interp.cost += guard_cost
            interp.instrumentation_cost += guard_cost
        _bump_ckpt_words(interp, frame, rid, log, 1)
        interp.events += 1
        interp.cost += dc
        interp.instrumentation_cost += dc
        return nxt

    return step


def _t_ckpt_mem(inst, idx: int, nxt: int):
    rid, dc = inst.region_id, inst.dynamic_cost
    resolve = _resolver(inst.ref)

    def step(interp, frame, _resolve=resolve):
        try:
            name, index = _resolve(interp, frame)
            cells = interp._mem_cells.get(name)
            if cells is None:
                raise Trap(f"read from dead object {name!r}", interp.events)
            if 0 <= index < len(cells):
                value = cells[index]
            else:
                raise Trap(
                    f"read out of bounds: {name}[{index}] "
                    f"(size {len(cells)})",
                    interp.events,
                )
        except BaseException:
            frame.ip = idx
            raise
        record = ("mem", name, index, value)
        log = frame.region_ckpts.get(rid)
        if log is None:
            log = frame.region_ckpts[rid] = []
        log.append(record)
        guard_cost = interp.guard.on_push(frame, rid, record)
        if guard_cost:
            interp.cost += guard_cost
            interp.instrumentation_cost += guard_cost
        _bump_ckpt_words(interp, frame, rid, log, 2)
        interp.events += 1
        interp.cost += dc
        interp.instrumentation_cost += dc
        return nxt

    return step


def _t_restore(inst, idx: int, nxt: int):
    rid, dc = inst.region_id, inst.dynamic_cost

    def step(interp, frame):
        try:
            records, guard_cost = interp.guard.verify_restore(frame, rid)
            if guard_cost:
                interp.cost += guard_cost
                interp.instrumentation_cost += guard_cost
            memory = interp.memory
            regs = frame.regs
            for record in reversed(records):
                if record[0] == "reg":
                    regs[record[1]] = record[2]
                else:
                    _, name, index, value = record
                    if memory.exists(name):
                        try:
                            memory.write(name, index, value)
                        except MemoryError_ as exc:
                            raise Trap(str(exc), interp.events) from None
        except BaseException:
            frame.ip = idx
            raise
        frame.region_ckpts[rid] = []
        interp.guard.on_reset(frame, rid)
        interp._ckpt_words.pop((frame.id, rid), None)
        interp.events += 1
        interp.cost += dc
        interp.instrumentation_cost += dc
        return nxt

    return step


# ----------------------------------------------------------------------
# superinstructions
# ----------------------------------------------------------------------


def _t_cmp_br(cmp_inst, br_inst, idx: int, targets: Dict[str, int]):
    """compare+branch fused: the latch of every loop, in one call.

    Charges the exact events/costs of the unfused sequence, including
    the step-budget and stop check *between* the halves (with
    ``frame.ip`` parked on the branch, so a limit hit resumes exactly
    there and a stop runs the branch as a reference step).  The flag
    register is still written — later readers see it.
    """
    pred, dest = cmp_inst.pred, cmp_inst.dest
    lhs, rhs = cmp_inst.lhs, cmp_inst.rhs
    lconst = isinstance(lhs, Constant)
    rconst = isinstance(rhs, Constant)
    cdc = cmp_inst.dynamic_cost
    bdc = br_inst.dynamic_cost
    if_true, if_false = br_inst.if_true, br_inst.if_false
    ti, fi = targets[if_true], targets[if_false]
    bidx = idx + 1
    eq_like = pred in ("eq", "ne")
    rel = operator.eq if pred == "eq" else operator.ne if pred == "ne" else _REL[pred]

    # The two latch shapes worth specializing: ``cmp %i, %n`` and
    # ``cmp %i, <const>``.
    if not lconst and not rconst:

        def step(interp, frame, _f=rel, _l=lhs, _r=rhs, _d=dest,
                 _cdc=cdc, _bdc=bdc, _t=if_true, _e=if_false,
                 _ti=ti, _fi=fi):
            regs = frame.regs
            try:
                a = regs[_l]
                b = regs[_r]
            except KeyError:
                a = regs.get(_l, 0)
                b = regs.get(_r, 0)
            if eq_like or not (isinstance(a, Pointer) or isinstance(b, Pointer)):
                r = 1 if _f(a, b) else 0
            else:
                frame.ip = idx
                r = _slow_cmp(interp, pred, a, b)
            regs[_d] = r
            interp.events += 1
            interp.cost += _cdc
            if interp.events >= interp._limit:
                return _stop_mid_pair(interp, frame, bidx)
            frame.ip = 0
            interp.events += 1
            interp.cost += _bdc
            if r:
                frame.block = _t
                return _ti
            frame.block = _e
            return _fi

        return step
    if not lconst and rconst:
        rv = rhs.value

        def step(interp, frame, _f=rel, _l=lhs, _rv=rv, _d=dest,
                 _cdc=cdc, _bdc=bdc, _t=if_true, _e=if_false,
                 _ti=ti, _fi=fi):
            regs = frame.regs
            try:
                a = regs[_l]
            except KeyError:
                a = 0
            if eq_like or not isinstance(a, Pointer):
                r = 1 if _f(a, _rv) else 0
            else:
                frame.ip = idx
                r = _slow_cmp(interp, pred, a, _rv)
            regs[_d] = r
            interp.events += 1
            interp.cost += _cdc
            if interp.events >= interp._limit:
                return _stop_mid_pair(interp, frame, bidx)
            frame.ip = 0
            interp.events += 1
            interp.cost += _bdc
            if r:
                frame.block = _t
                return _ti
            frame.block = _e
            return _fi

        return step

    get_l = _operand(lhs)
    get_r = _operand(rhs)

    def step(interp, frame, _f=rel, _l=get_l, _r=get_r, _ti=ti, _fi=fi):
        a = _l(frame)
        b = _r(frame)
        if eq_like or not (isinstance(a, Pointer) or isinstance(b, Pointer)):
            r = 1 if _f(a, b) else 0
        else:
            frame.ip = idx
            r = _slow_cmp(interp, pred, a, b)
        frame.regs[dest] = r
        interp.events += 1
        interp.cost += cdc
        if interp.events >= interp._limit:
            return _stop_mid_pair(interp, frame, bidx)
        frame.ip = 0
        interp.events += 1
        interp.cost += bdc
        if r:
            frame.block = if_true
            return _ti
        frame.block = if_false
        return _fi

    return step


def _t_ckpt_store(ck_inst, st_inst, idx: int, nxt: int):
    """checkpoint+store fused for same-address pairs.

    Encore instrumentation places ``ckpt_mem x`` immediately before
    ``store x``; the pair resolves the address once (the checkpoint
    mutates no register or stack state, so the second resolution is
    provably identical) and reads/writes the cell back to back.
    """
    rid = ck_inst.region_id
    cdc = ck_inst.dynamic_cost
    sdc = st_inst.dynamic_cost
    resolve = _resolver(ck_inst.ref)
    get_v = _operand(st_inst.value)
    sidx = idx + 1

    def step(interp, frame, _resolve=resolve, _v=get_v):
        # One resolve and one bounds check serve both halves: the push
        # mutates no register or stack state, so the store's address is
        # provably the checkpoint's, and a successful read guarantees
        # the write at the same index succeeds.
        try:
            name, index = _resolve(interp, frame)
            cells = interp._mem_cells.get(name)
            if cells is None:
                raise Trap(f"read from dead object {name!r}", interp.events)
            if 0 <= index < len(cells):
                value = cells[index]
            else:
                raise Trap(
                    f"read out of bounds: {name}[{index}] "
                    f"(size {len(cells)})",
                    interp.events,
                )
        except BaseException:
            frame.ip = idx
            raise
        record = ("mem", name, index, value)
        log = frame.region_ckpts.get(rid)
        if log is None:
            log = frame.region_ckpts[rid] = []
        log.append(record)
        guard_cost = interp.guard.on_push(frame, rid, record)
        if guard_cost:
            interp.cost += guard_cost
            interp.instrumentation_cost += guard_cost
        _bump_ckpt_words(interp, frame, rid, log, 2)
        interp.events += 1
        interp.cost += cdc
        interp.instrumentation_cost += cdc
        if interp.events >= interp._limit:
            return _stop_mid_pair(interp, frame, sidx)
        cells[index] = _v(frame)
        interp.events += 1
        interp.cost += sdc
        return nxt

    return step


# ----------------------------------------------------------------------
# the translate pass
# ----------------------------------------------------------------------


def _t_fell_off(n: int):
    """Stub closure after each block's last slot: the fell-off trap.

    The loop-top budget check has already run (reference ordering:
    budget, then the trap); ``frame.ip`` parks one past the last
    instruction, exactly where the reference leaves it.
    """

    def step(interp, frame, _n=n):
        frame.ip = _n
        raise Trap(f"fell off end of block {frame.block}", interp.events)

    return step


def _t_wild_label(label: str):
    """Stub closure for a branch target that names no block.

    The reference raises a raw ``KeyError`` from its block fetch only
    when the jump is actually *taken*; resolving targets at decode time
    must not change that, so wild labels decode to a slot that defers
    the KeyError to execution (after the loop-top budget check, with
    ``frame.block``/``frame.ip`` already updated by the jump — the
    exact reference state).
    """

    def step(interp, frame, _label=label):
        raise KeyError(_label)

    return step


def _decode_one(inst: Instruction, idx: int, nxt: int, module: Module,
                func_name: str, label: str, targets: Dict[str, int]):
    """One closure for ``inst``.

    ``idx`` is the block-relative instruction index (``frame.ip``
    units, used by every trap path); ``nxt`` is the *flat* index of the
    following slot (the dispatch loop's units, returned on the
    sequential path); ``targets`` maps labels to flat block starts.
    """
    op = inst.opcode
    if op == "binop":
        return _t_binop(inst, idx, nxt)
    if op == "cmp":
        return _t_cmp(inst, idx, nxt)
    if op == "mov":
        return _t_mov(inst, idx, nxt)
    if op == "load":
        return _t_load(inst, idx, nxt)
    if op == "store":
        return _t_store(inst, idx, nxt)
    if op == "br":
        return _t_br(inst, idx, targets)
    if op == "jmp":
        return _t_jmp(inst, idx, targets)
    if op == "call":
        return _t_call(inst, idx, nxt, module, func_name, label)
    if op == "ret":
        return _t_ret(inst, idx, nxt)
    if op == "unop":
        return _t_unop(inst, idx, nxt)
    if op == "select":
        return _t_select(inst, idx, nxt)
    if op == "addrof":
        return _t_addrof(inst, idx, nxt)
    if op == "alloc":
        return _t_alloc(inst, idx, nxt, func_name, label)
    if op == "set_recovery_ptr":
        return _t_set_recovery_ptr(inst, idx, nxt)
    if op == "clear_recovery_ptr":
        return _t_clear_recovery_ptr(inst, idx, nxt)
    if op == "ckpt_reg":
        return _t_ckpt_reg(inst, idx, nxt)
    if op == "ckpt_mem":
        return _t_ckpt_mem(inst, idx, nxt)
    if op == "restore":
        return _t_restore(inst, idx, nxt)
    if op in ("spawn", "join"):
        # Thread ops are reference steps: the scheduler comes up at the
        # first spawn, and a blocking join switches threads.
        def step(interp, frame):
            return _park(interp, frame, idx)

        return step
    unknown = f"unknown opcode {op}"

    def step(interp, frame):
        frame.ip = idx
        raise Trap(unknown, interp.events)

    return step


def _branch_labels(inst) -> tuple:
    if inst.opcode == "br":
        return (inst.if_true, inst.if_false)
    if inst.opcode == "jmp":
        return (inst.target,)
    return ()


def _decode_function(func, module: Module, fused: Dict[str, int]):
    """Translate one function into a flat closure array.

    Blocks are laid out back to back, each followed by its fell-off
    stub; branch closures return the flat start of their target, so a
    block transition costs no dict probe at run time.  ``starts`` maps
    labels to flat offsets (resume entry, and recovering a
    block-relative ``frame.ip`` on the rare budget-limit exit).
    """
    starts: Dict[str, Tuple[int, int]] = {}
    targets: Dict[str, int] = {}
    offset = 0
    for label, block in func.blocks.items():
        starts[label] = (offset, len(block.instructions))
        targets[label] = offset
        offset += len(block.instructions) + 1  # +1: fell-off stub
    for block in func.blocks.values():
        for inst in block.instructions:
            for label in _branch_labels(inst):
                if label not in targets:
                    targets[label] = offset  # wild-label stub slot
                    offset += 1
    flat: list = [None] * offset
    for label, block in func.blocks.items():
        base = targets[label]
        insts = block.instructions
        n = len(insts)
        for i, inst in enumerate(insts):
            flat[base + i] = _decode_one(
                inst, i, base + i + 1, module, func.name, label, targets
            )
        flat[base + n] = _t_fell_off(n)
        # Superinstruction pass: replace the *first* slot of a fused
        # pair; the second keeps its plain closure so traps, redirects,
        # and step-budget resumes can still enter the pair mid-way.
        i = 0
        while i < n - 1:
            a, b = insts[i], insts[i + 1]
            if (
                a.opcode == "cmp"
                and b.opcode == "br"
                and isinstance(b.cond, VirtualRegister)
                and b.cond == a.dest
                and (a.pred in ("eq", "ne") or a.pred in _REL)
            ):
                flat[base + i] = _t_cmp_br(a, b, i, targets)
                fused["cmp_br"] += 1
                i += 2
                continue
            if a.opcode == "ckpt_mem" and b.opcode == "store" \
                    and a.ref == b.ref:
                flat[base + i] = _t_ckpt_store(a, b, i, base + i + 2)
                fused["ckpt_store"] += 1
                i += 2
                continue
            i += 1
    for label, slot in targets.items():
        if label not in starts:
            flat[slot] = _t_wild_label(label)
    return flat, starts


def _t_block_head(inner, func_name: str, label: str):
    """A block's first slot in the block-counting variant.

    Reports the entry once the first instruction has executed, as a
    ``post_step`` profiler would: a trapping step reports nothing, and
    neither does a parked one (it executes nothing here, and its
    reference step reports to ``Stops.on_step`` instead).
    """

    def step(interp, frame, _inner=inner):
        events = interp.events
        nxt = _inner(interp, frame)
        if interp.events != events:
            interp.stops.block_entry(frame.id, func_name, label)
        return nxt

    return step


class DecodedProgram:
    """One module, translated.

    ``code[function]`` is the function's flat closure array;
    ``starts[function][block]`` maps a label to its ``(flat offset,
    instruction count)`` pair.
    """

    __slots__ = ("fingerprint", "code", "starts", "fused", "_counting")

    def __init__(self, fingerprint: str,
                 code: Dict[str, list],
                 starts: Dict[str, Dict[str, Tuple[int, int]]],
                 fused: Dict[str, int]) -> None:
        self.fingerprint = fingerprint
        self.code = code
        self.starts = starts
        self.fused = fused
        self._counting: Optional["DecodedProgram"] = None

    def block_counting(self) -> "DecodedProgram":
        """This program with every block head reporting its entries to
        the interpreter's ``stops`` (decoded profiling); built once,
        sharing every other closure."""
        if self._counting is None:
            code = {}
            for name, flat in self.code.items():
                flat = list(flat)
                for label, (start, size) in self.starts[name].items():
                    if size:
                        flat[start] = _t_block_head(flat[start], name, label)
                code[name] = flat
            self._counting = DecodedProgram(
                self.fingerprint, code, self.starts, self.fused)
        return self._counting


def decode_module(module: Module,
                  fingerprint: Optional[str] = None) -> DecodedProgram:
    """Translate every function of ``module`` (no caching)."""
    if fingerprint is None:
        fingerprint = module_fingerprint(module)
    code: Dict[str, list] = {}
    starts: Dict[str, Dict[str, int]] = {}
    fused = {"cmp_br": 0, "ckpt_store": 0}
    for name, func in module.functions.items():
        code[name], starts[name] = _decode_function(func, module, fused)
    return DecodedProgram(fingerprint, code, starts, fused)


def _module_signature(module: Module) -> tuple:
    """Cheap structural identity: catches insert/delete/replace in place.

    This is the fast validity probe for the per-object memo — it sees
    every change that swaps instruction objects or block lists, but not
    in-place *field* rewrites on an existing instruction (e.g.
    copyprop's ``inst.ref = ...``).  Code that does those must call
    :meth:`DecodeCache.invalidate` — the pass manager does so after
    every transform pass.
    """
    parts: list = [len(module.functions)]
    for func in module.functions.values():
        parts.append(func.name)
        for label, block in func.blocks.items():
            insts = block.instructions
            parts.append(id(insts))
            parts.append(len(insts))
            parts.extend(map(id, insts))
    return tuple(parts)


class DecodeCache:
    """Two-level memo for decoded programs.

    Level 1 is a weak per-``Module``-object map validated by
    :func:`_module_signature`; level 2 shares decoded programs across
    content-equal module copies (deepcopies, forked workers) keyed by
    the pipeline's content-hash fingerprint, LRU-bounded.  Decoded
    closures hold no interpreter state, so one program may serve any
    number of concurrent interpreters.
    """

    def __init__(self, max_programs: int = 64) -> None:
        self.max_programs = max_programs
        self._by_module: "weakref.WeakKeyDictionary[Module, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        self._by_fingerprint: "OrderedDict[str, DecodedProgram]" = OrderedDict()
        self.module_hits = 0
        self.fingerprint_hits = 0
        self.decodes = 0

    def program_for(self, module: Module) -> DecodedProgram:
        entry = self._by_module.get(module)
        if entry is not None:
            signature, program = entry
            if signature == _module_signature(module):
                self.module_hits += 1
                return program
        fingerprint = module_fingerprint(module)
        program = self._by_fingerprint.get(fingerprint)
        if program is not None:
            self.fingerprint_hits += 1
            self._by_fingerprint.move_to_end(fingerprint)
        else:
            self.decodes += 1
            program = decode_module(module, fingerprint)
            self._by_fingerprint[fingerprint] = program
            while len(self._by_fingerprint) > self.max_programs:
                self._by_fingerprint.popitem(last=False)
        self._by_module[module] = (_module_signature(module), program)
        return program

    def invalidate(self, module: Module) -> None:
        """Drop the decode bound to this module object.

        Required after in-place instruction *field* mutation, which the
        structural signature cannot see.  The next ``program_for``
        re-fingerprints the (changed) text and decodes fresh.
        """
        self._by_module.pop(module, None)

    def clear(self) -> None:
        self._by_module = weakref.WeakKeyDictionary()
        self._by_fingerprint.clear()
        self.module_hits = self.fingerprint_hits = self.decodes = 0

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "module_hits": self.module_hits,
            "fingerprint_hits": self.fingerprint_hits,
            "decodes": self.decodes,
            "programs": len(self._by_fingerprint),
        }


#: Process-wide cache; forked campaign workers inherit warm entries.
DECODE_CACHE = DecodeCache()


def invalidate_decode(module: Module) -> None:
    """Public hook for code that mutates instruction fields in place."""
    DECODE_CACHE.invalidate(module)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class FastInterpreter(ReferenceInterpreter):
    """Two-tier engine: pre-decoded fast path, reference slow path.

    Runs decoded closures up to the next *stop* — the next step a
    :class:`~repro.runtime.interpreter.Stops` observer or the thread
    scheduler must see — and executes that step with the *inherited*
    reference ``_step``.  A generic ``pre_step``/``post_step`` hook or a
    pending redirect sends every step to the reference tier.  So golden
    runs, profiling runs, threaded runs and model-detector SFI trials
    all run decoded code between their stops, while trace capture and
    replay-detector trials run on reference code paths by construction.

    The same single-run contract as :class:`ReferenceInterpreter`
    applies; see its docstring for what may be shared across runs.
    """

    def __init__(
        self,
        module: Module,
        max_steps: int = 20_000_000,
        pre_step=None,
        post_step=None,
        externals=None,
        metadata_guard: str = "off",
        memory_image: Optional[MachineMemory] = None,
        max_threads: Optional[int] = None,
        quantum: Optional[int] = None,
        stops: Optional[Stops] = None,
    ) -> None:
        super().__init__(
            module,
            max_steps=max_steps,
            pre_step=pre_step,
            post_step=post_step,
            externals=externals,
            metadata_guard=metadata_guard,
            memory_image=memory_image,
            max_threads=max_threads,
            quantum=quantum,
            stops=stops,
        )
        self._program: Optional[DecodedProgram] = None
        # The event index of the next step that must run in the
        # reference tier, the decoded loop's bound (the lower of that
        # and ``max_steps``; fused pairs check it between halves), and
        # whether region instructions park (see Stops.watch_regions).
        self._stop = NO_STOP
        self._limit = max_steps
        self._watch = False
        # Incremental peak_ckpt_words bookkeeping: (frame id, region id)
        # -> (log, its length, its words); see _bump_ckpt_words.
        self._ckpt_words: Dict[Tuple[int, int], tuple] = {}
        # Decoded memory templates probe the cell map directly; the
        # dict object is stable for the life of a ``MachineMemory``.
        self._mem_cells = self.memory._cells

    def _next_stop(self) -> int:
        """The next stop of the observer and the scheduler; also
        refreshes whether region instructions park."""
        stop = NO_STOP
        stops = self.stops
        if stops is not None:
            stop = stops.next_stop(self)
            self._watch = stops.watch_regions
        if self.scheduler is not None:
            stop = min(stop, self.scheduler.next_stop(self))
        return stop

    def resume(self, output_objects=()):
        """Continue execution (e.g. after an externally-handled trap)."""
        program = self._program
        try:
            self._stop = self._next_stop()
            while not self._finished:
                if (
                    self.events >= self._stop
                    or self._pending_redirect is not None
                    or self.pre_step is not None
                    or self.post_step is not None
                ):
                    self._step()
                    if not self._finished:
                        self._stop = self._next_stop()
                else:
                    if program is None:
                        program = DECODE_CACHE.program_for(self.module)
                        if self.stops is not None and self.stops.counts_blocks:
                            program = program.block_counting()
                        self._program = program
                    self._run_decoded(program)
        finally:
            # Fast-path closures bank only ``cost`` (plus
            # ``instrumentation_cost`` where it applies); ``app_cost``
            # is the reference invariant cost - instrumentation_cost,
            # settled whenever control leaves the engine.  The slow
            # tier maintains all three exactly, so this is idempotent.
            self.app_cost = self.cost - self.instrumentation_cost
        return ExecResult(
            value=self._return_value,
            events=self.events,
            cost=self.cost,
            app_cost=self.app_cost,
            instrumentation_cost=self.instrumentation_cost,
            output=self.memory.snapshot(output_objects),
        )

    def _run_decoded(self, program: DecodedProgram) -> None:
        """Run decoded code until a frame switch, a stop, finish, or
        exception.

        The inner loop is the entire fast-path dispatch: one bounds
        compare, one compare against the lower of the step budget and
        the next stop, one closure call.  Closures return the flat index
        of the next slot (branches return their target's block start;
        every block ends in a fell-off stub) or ``-1`` to leave
        (call/ret/external/parked step — the outer ``resume`` loop
        re-checks hooks and stops there, which is how mid-run hook
        installation switches tiers).
        """
        frame = self.frames[-1]
        maxs = self.max_steps
        # The reference checks the step budget *before* fetching the
        # block, so the budget check must precede the ``starts`` lookup
        # (which raises the same KeyError for a wild resume label).
        if self.events >= maxs:
            raise ExecutionLimit(f"exceeded {maxs} dynamic instructions")
        limit = self._limit = min(maxs, self._stop)
        code = program.code[frame.func.name]
        starts = program.starts[frame.func.name]
        start, size = starts[frame.block]
        if frame.ip > size:
            # Re-entering past the fell-off stub (e.g. resumed after a
            # caught fell-off trap): re-trap like the reference, never
            # run into the next block's slots.
            raise Trap(
                f"fell off end of block {frame.block}", self.events
            )
        ip = start + frame.ip
        while ip >= 0:
            if self.events >= limit:
                # Park a block-relative ip for the resume contract (or
                # for the reference step at the stop).  Closures keep
                # ``frame.block`` exact at all times, so the
                # subtraction is valid on this rare exit; a branch to
                # an undeclared label already left ``frame.ip`` at 0.
                entry = starts.get(frame.block)
                if entry is not None:
                    frame.ip = ip - entry[0]
                if self.events >= maxs:
                    raise ExecutionLimit(
                        f"exceeded {maxs} dynamic instructions"
                    )
                return
            ip = code[ip](self, frame)
