"""Differential fuzzing of the DAG builders and scheduling pipeline.

The five construction algorithms promise the same dependence closure;
the verifier promises to catch any schedule that violates a block's
re-derived dependences.  This harness exercises both promises on
inputs nobody hand-wrote:

* **layered** random blocks -- instructions generated layer by layer,
  each layer consuming the previous layer's definitions (the
  layer-by-layer family of Canon et al.'s random task-graph
  generation survey);
* **random-arc** blocks -- each instruction draws its sources from
  uniformly random earlier definitions with a seeded edge probability
  (the Erdős–Rényi-style family from the same survey);
* **mutated** real assembly -- a seeded text mutator (swap, delete,
  duplicate, register rename, immediate perturbation, line
  corruption) applied to the repository's hand-written kernels, fed
  through the lenient parser's skip-and-continue recovery.

Every generated block is pushed through the builders with
verification on; any disagreement -- a closure mismatch, a failed
verification check, or an outright crash -- is minimized with a
greedy delta-debugging loop and written out as a self-describing
reproducer ``.s`` file.

Everything is seeded: the same ``(seed, iterations)`` pair always
generates the same cases, finds the same failures, and writes the
same reproducers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.asm.parser import parse_asm
from repro.cfg.basic_block import BasicBlock
from repro.cfg.partition import partition_blocks
from repro.dag.builders import ALL_BUILDERS, CompareAllBuilder
from repro.dag.builders.base import DagBuilder
from repro.dag.transitive import classify_arcs
from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.isa.memory import MemExpr
from repro.isa.opcodes import lookup_opcode
from repro.isa.operands import (
    ImmOperand,
    MemOperand,
    Operand,
    RegOperand,
)
from repro.isa.registers import parse_register
from repro.machine.model import MachineModel
from repro.machine.presets import generic_risc
from repro.pipeline import schedule_attempt
from repro.verify.checker import check_builders_agree
from repro.workloads.kernels import KERNELS

#: builders whose *schedules* are independently verified (Landskov is
#: excluded here -- its documented transitive-arc pruning can
#: legitimately fail the timing check on long-latency chains -- but it
#: still participates in the closure-agreement check below)
EXACT_BUILDERS: tuple[type[DagBuilder], ...] = tuple(
    cls for cls in ALL_BUILDERS if cls.name != "landskov")

_INT_REGS = tuple(f"%l{i}" for i in range(8)) \
    + tuple(f"%o{i}" for i in range(6)) \
    + tuple(f"%i{i}" for i in range(6))
_FP_REGS = tuple(f"%f{i}" for i in range(0, 32, 2))
_INT_OPS = ("add", "sub", "and", "or", "xor", "sll")
_FP_OPS = ("faddd", "fsubd", "fmuld")
_SHAPES = ("layered", "random-arc", "mutated")


def _reg(name: str) -> RegOperand:
    return RegOperand(parse_register(name))


def _make(mnemonic: str, *operands: Operand) -> Instruction:
    return Instruction(0, lookup_opcode(mnemonic), tuple(operands))


def _as_block(instrs: Sequence[Instruction], index: int = 0) -> BasicBlock:
    return BasicBlock(index, [ins.with_index(k)
                              for k, ins in enumerate(instrs)])


def _mem_pool(rng: random.Random, case_id: str) -> list[MemExpr]:
    pool: list[MemExpr] = []
    for k in range(rng.randint(1, 5)):
        shape = rng.random()
        if shape < 0.5:
            pool.append(MemExpr(base=rng.choice(("%i0", "%i1", "%l0")),
                                offset=4 * rng.randint(0, 8)))
        elif shape < 0.8:
            pool.append(MemExpr(base="%i6", offset=-4 * (k + 1)))
        else:
            pool.append(MemExpr(symbol=f"fz{case_id}_{k}"))
    return pool


def _body_op(rng: random.Random, sources: Sequence[str],
             dest_cursor: list[int], pool: list[MemExpr],
             fp_frac: float, mem_frac: float) -> tuple[Instruction, str]:
    """One generated instruction; returns (instruction, defined reg)."""
    roll = rng.random()
    if pool and roll < mem_frac:
        expr = rng.choice(pool)
        if rng.random() < 0.6:
            dest = _INT_REGS[dest_cursor[0] % len(_INT_REGS)]
            dest_cursor[0] += 1
            return _make("ld", MemOperand(expr), _reg(dest)), dest
        src = rng.choice(sources) if sources else "%o0"
        return _make("st", _reg(src), MemOperand(expr)), ""
    if rng.random() < fp_frac:
        dest = _FP_REGS[dest_cursor[1] % len(_FP_REGS)]
        dest_cursor[1] += 1
        fp_sources = [s for s in sources if s.startswith("%f")] \
            or list(_FP_REGS[:4])
        op = rng.choice(_FP_OPS)
        return _make(op, _reg(rng.choice(fp_sources)),
                     _reg(rng.choice(fp_sources)), _reg(dest)), dest
    dest = _INT_REGS[dest_cursor[0] % len(_INT_REGS)]
    dest_cursor[0] += 1
    int_sources = [s for s in sources if not s.startswith("%f")] \
        or list(_INT_REGS[:4])
    op = rng.choice(_INT_OPS)
    second: Operand = (ImmOperand(rng.randint(1, 64))
                       if rng.random() < 0.4
                       else _reg(rng.choice(int_sources)))
    return _make(op, _reg(rng.choice(int_sources)), second,
                 _reg(dest)), dest


def layered_block(rng: random.Random, case_id: str,
                  max_size: int = 24) -> BasicBlock:
    """A block whose dependences run layer to layer (Canon et al.)."""
    n_layers = rng.randint(2, 5)
    per_layer = max(1, rng.randint(2, max(2, max_size // n_layers)))
    pool = _mem_pool(rng, case_id)
    fp_frac = rng.choice((0.0, 0.3, 0.6))
    mem_frac = rng.uniform(0.1, 0.4)
    cursor = [0, 0]
    instrs: list[Instruction] = []
    previous: list[str] = list(_INT_REGS[:4])
    for _ in range(n_layers):
        defined: list[str] = []
        for _ in range(per_layer):
            instr, dest = _body_op(rng, previous, cursor, pool,
                                   fp_frac, mem_frac)
            instrs.append(instr)
            if dest:
                defined.append(dest)
        if defined:
            previous = defined
    return _as_block(instrs)


def random_arc_block(rng: random.Random, case_id: str,
                     max_size: int = 24) -> BasicBlock:
    """A block with uniformly random def-use arcs (Canon et al.)."""
    n = rng.randint(4, max_size)
    edge_p = rng.uniform(0.2, 0.8)
    pool = _mem_pool(rng, case_id)
    fp_frac = rng.choice((0.0, 0.4))
    mem_frac = rng.uniform(0.1, 0.4)
    cursor = [0, 0]
    instrs: list[Instruction] = []
    defined: list[str] = []
    for _ in range(n):
        sources = (defined if defined and rng.random() < edge_p
                   else list(_INT_REGS[:4]))
        instr, dest = _body_op(rng, sources, cursor, pool,
                               fp_frac, mem_frac)
        instrs.append(instr)
        if dest:
            defined.append(dest)
    return _as_block(instrs)


def mutate_kernel(rng: random.Random) -> list[BasicBlock]:
    """Seeded text mutations of a real kernel, leniently parsed.

    Returns the mutant's non-empty basic blocks (possibly none, when a
    mutation destroys every instruction or collides labels).
    """
    source = KERNELS[rng.choice(sorted(KERNELS))]
    lines = source.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        kind = rng.randrange(6)
        i = rng.randrange(len(lines))
        if kind == 0 and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 1:
            del lines[i]
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3:
            lines[i] = lines[i].replace(
                rng.choice(("%o0", "%o1", "%f0", "%l0")),
                rng.choice(("%o2", "%o3", "%f4", "%l2")))
        elif kind == 4:
            lines[i] = lines[i].replace(
                str(rng.choice((4, 8, 16))), str(rng.choice((12, 20))))
        else:
            lines[i] = lines[i] + " ,,garbage)["
    try:
        program = parse_asm("\n".join(lines), "<fuzz-mutant>",
                            lenient=True)
        blocks = partition_blocks(program)
    except ReproError:
        return []
    return [b for b in blocks if b.instructions]


def check_block(block: BasicBlock, machine: MachineModel,
                builders: Sequence[type[DagBuilder]] | None = None,
                ) -> str | None:
    """The differential oracle: None when all builders agree and every
    schedule verifies; else a one-line failure description.

    Checks, in order:

    1. every builder (``builders``; default all five) induces the same
       dependence closure as the compare-against-all reference;
    2. for each exact builder, the full pipeline (construction +
       heuristic pass + forward scheduling) produces a schedule that
       passes independent verification;
    3. nothing crashes with an unexpected (non-``ReproError``)
       exception.
    """
    try:
        check_builders_agree(
            block, machine,
            builders=list(builders) if builders is not None else None)
    except ReproError as exc:
        return f"closure disagreement: {exc}"
    except Exception as exc:  # noqa: BLE001 - fuzzing net
        return f"crash in closure check: {type(exc).__name__}: {exc}"
    schedule_set = (tuple(builders) if builders is not None
                    else EXACT_BUILDERS)
    for cls in schedule_set:
        if cls.name == "landskov":
            continue  # documented pruning; closure-checked above
        try:
            schedule_attempt(block, machine, lambda: cls(machine),
                             cls.name, verify=True)
        except ReproError as exc:
            return f"[{cls.name}] {exc}"
        except Exception as exc:  # noqa: BLE001 - fuzzing net
            return f"crash in [{cls.name}]: {type(exc).__name__}: {exc}"
    return None


def minimize_block(block: BasicBlock,
                   still_fails: Callable[[BasicBlock], bool],
                   ) -> BasicBlock:
    """Greedy delta-debugging: drop chunks, then single instructions,
    while the failure persists.  Deterministic, no randomness."""
    instrs = list(block.instructions)
    chunk = max(1, len(instrs) // 2)
    while chunk >= 1:
        i = 0
        while i < len(instrs) and len(instrs) > 1:
            candidate = instrs[:i] + instrs[i + chunk:]
            if candidate and still_fails(_as_block(candidate,
                                                   block.index)):
                instrs = candidate
            else:
                i += chunk
        chunk //= 2
    return _as_block(instrs, block.index)


@dataclass(frozen=True)
class FuzzFailure:
    """One triaged disagreement.

    Attributes:
        case: case identifier ("<seed>-<iteration>[-<block>]").
        shape: generator that produced the input.
        description: the oracle's failure description (of the
            minimized reproducer).
        reproducer: path of the written ``.s`` file.
        original_size: instructions before minimization.
        minimized_size: instructions after minimization.
    """

    case: str
    shape: str
    description: str
    reproducer: str
    original_size: int
    minimized_size: int


@dataclass
class FuzzResult:
    """Outcome of one fuzzing campaign.

    Attributes:
        seed: campaign seed.
        iterations: requested iterations.
        n_blocks: blocks pushed through the oracle.
        n_skipped: mutant cases that produced no parseable blocks.
        failures: triaged disagreements, in discovery order.
    """

    seed: int
    iterations: int
    n_blocks: int = 0
    n_skipped: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no disagreement survived triage."""
        return not self.failures


class _DisagreeingBuilder(CompareAllBuilder):
    """The seeded fault: compare-all minus one essential arc.

    Dropping a non-redundant arc changes the dependence closure, so
    the differential oracle is *guaranteed* to flag any block where
    this builder participates and an essential arc exists -- the
    end-to-end self-test of the fuzz-triage path (``--inject-fault``).
    """

    name = "injected-disagreement"

    def _construct(self, dag, space, oracle, stats) -> None:
        super()._construct(dag, space, oracle, stats)
        labels = classify_arcs(dag)
        for node in dag.real_nodes():
            for arc in list(node.out_arcs):
                if arc.child.instr is not None and not labels[arc]:
                    dag.remove_arc(arc)
                    return


def fuzz(seed: int = 0,
         iterations: int = 100,
         machine: MachineModel | None = None,
         out_dir: str = "fuzz-failures",
         shapes: Sequence[str] = _SHAPES,
         max_size: int = 24,
         inject_fault: bool = False,
         on_case: Callable[[str, str], None] | None = None) -> FuzzResult:
    """Run a differential fuzzing campaign.

    Args:
        seed: campaign seed; fixes the entire run, including
            reproducer contents.
        iterations: generated cases (each case is one block, or one
            kernel mutant contributing up to three blocks).
        machine: timing model (default: generic RISC).
        out_dir: directory for reproducer files (created on first
            failure).
        shapes: generator subset, from ``layered``, ``random-arc``,
            ``mutated``.
        max_size: instruction cap for generated blocks.
        inject_fault: add the deliberately broken
            :class:`_DisagreeingBuilder` to the differential set -- a
            seeded disagreement that must be detected, minimized, and
            written as a reproducer (the harness's own self-test).
        on_case: progress callback ``(case_id, shape)``.

    Returns:
        The campaign's :class:`FuzzResult`.
    """
    if machine is None:
        machine = generic_risc()
    for shape in shapes:
        if shape not in _SHAPES:
            raise ReproError(
                f"unknown fuzz shape {shape!r}; known: {list(_SHAPES)}")
    builders: list[type[DagBuilder]] | None = None
    if inject_fault:
        builders = list(ALL_BUILDERS) + [_DisagreeingBuilder]
    result = FuzzResult(seed=seed, iterations=iterations)
    for iteration in range(iterations):
        rng = random.Random(f"repro-fuzz:{seed}:{iteration}")
        shape = shapes[iteration % len(shapes)]
        case = f"{seed}-{iteration}"
        if on_case is not None:
            on_case(case, shape)
        if shape == "layered":
            blocks = [layered_block(rng, case, max_size)]
        elif shape == "random-arc":
            blocks = [random_arc_block(rng, case, max_size)]
        else:
            blocks = mutate_kernel(rng)[:3]
            if not blocks:
                result.n_skipped += 1
                continue
        for k, block in enumerate(blocks):
            result.n_blocks += 1
            description = check_block(block, machine, builders)
            if description is None:
                continue
            case_id = case if len(blocks) == 1 else f"{case}-{k}"
            result.failures.append(_triage(
                block, machine, builders, case_id, shape,
                description, out_dir))
    return result


def _triage(block: BasicBlock, machine: MachineModel,
            builders: Sequence[type[DagBuilder]] | None,
            case_id: str, shape: str, description: str,
            out_dir: str) -> FuzzFailure:
    """Minimize a failing block and write its reproducer file."""
    minimized = minimize_block(
        block, lambda b: check_block(b, machine, builders) is not None)
    final_description = check_block(minimized, machine, builders) \
        or description
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"repro-{case_id}.s")
    lines = [
        "! repro fuzz reproducer",
        f"! case: {case_id}  shape: {shape}",
        f"! failure: {final_description}",
        f"! minimized: {len(block.instructions)} -> "
        f"{len(minimized.instructions)} instructions",
    ]
    lines.extend(f"\t{ins.render()}" for ins in minimized.instructions)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return FuzzFailure(
        case=case_id, shape=shape, description=final_description,
        reproducer=path, original_size=len(block.instructions),
        minimized_size=len(minimized.instructions))
