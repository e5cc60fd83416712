"""Per-chain collapse decisions for multi-hop indicator chains.

A snowflake schema routes entity rows to a distant dimension through a chain
of PK-FK hops, represented factorized as a
:class:`~repro.la.chain.ChainedIndicator` (the product ``K1 K2 ... Kh`` is
never formed).  Keeping the chain factorized costs one extra sparse scatter
per tail hop on *every* data pass; collapsing it into one materialized
indicator pays a one-time sparse product whose output is never larger than
the first hop (one non-zero per entity row) but gives up the shared tail
hops.  Which side wins depends on the workload: a one-shot aggregation keeps
the chain, a 100-iteration gradient descent collapses it.

The decision model mirrors the planner's other cost terms in spirit but works
in non-zeros rather than seconds -- every quantity involved is a sparse
scatter over an indicator, so the calibrated rate cancels out of the
comparison:

* keeping the chain costs ``passes * tail_nnz`` extra scatter work, where
  ``tail_nnz`` is the total non-zeros of the hops after the first (each pass
  folds through every hop instead of one collapsed indicator);
* collapsing costs one sparse product pass, priced at
  ``head_nnz * (1 + COLLAPSE_AMORTIZATION)`` to cover the build plus the
  allocation/copy overhead a one-time materialization carries over a steady
  -state scatter.

The pipeline builder (:func:`repro.relational.pipeline.normalized_from_schema`)
consults :func:`decide_collapse` at build time; :class:`~repro.core.planner.
planner.Planner` re-derives the decisions for live chains (and merges the
builder's recorded ones) so ``Plan.explain()`` can show them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.la.chain import ChainedIndicator
from repro.la.types import is_chain

#: Multiplier on the one-time collapse cost: building the product allocates
#: and copies, which a steady-state scatter does not, so collapsing must be
#: won by more than a single pass's savings before it pays off.
COLLAPSE_AMORTIZATION = 4.0


@dataclass(frozen=True)
class ChainDecision:
    """Collapse-or-keep verdict for one chained indicator.

    ``table_index`` is the position of the chain in the normalized matrix's
    indicator list (i.e. which joined attribute table it routes to).
    """

    table_index: int
    num_hops: int
    head_nnz: int
    tail_nnz: int
    passes: float
    collapse: bool
    reason: str

    def to_json(self) -> dict:
        return {
            "table_index": self.table_index,
            "num_hops": self.num_hops,
            "head_nnz": self.head_nnz,
            "tail_nnz": self.tail_nnz,
            "passes": self.passes,
            "collapse": self.collapse,
            "reason": self.reason,
        }

    def describe(self) -> str:
        verdict = "collapse" if self.collapse else "keep factorized"
        return (f"chain[{self.table_index}] ({self.num_hops} hops): "
                f"{verdict} -- {self.reason}")


def workload_passes(workload) -> float:
    """Data passes the workload makes: iterations times per-pass operators."""
    if workload is None:
        return 1.0
    return float(workload.iterations) * float(max(1, len(workload.uses)))


def decide_collapse(chain: ChainedIndicator, workload=None,
                    table_index: int = 0) -> ChainDecision:
    """Should this chain be collapsed into one materialized indicator?

    Collapse iff ``passes * tail_nnz > head_nnz * (1 + COLLAPSE_AMORTIZATION)``
    -- the cumulative per-pass savings must exceed the amortized build cost.
    Single-hop "chains" trivially stay as they are (there is no tail).
    """
    head_nnz = int(chain.hops[0].nnz)
    tail_nnz = int(sum(h.nnz for h in chain.hops[1:]))
    passes = workload_passes(workload)
    saved = passes * tail_nnz
    build = head_nnz * (1.0 + COLLAPSE_AMORTIZATION)
    collapse = chain.num_hops > 1 and saved > build
    if chain.num_hops <= 1:
        reason = "single hop, nothing to collapse"
    elif collapse:
        reason = (f"{passes:.0f} passes x {tail_nnz} tail nnz = {saved:.0f} "
                  f"saved scatters > {build:.0f} amortized build")
    else:
        reason = (f"{passes:.0f} passes x {tail_nnz} tail nnz = {saved:.0f} "
                  f"saved scatters <= {build:.0f} amortized build")
    return ChainDecision(
        table_index=table_index, num_hops=chain.num_hops, head_nnz=head_nnz,
        tail_nnz=tail_nnz, passes=passes, collapse=collapse, reason=reason,
    )


def maybe_collapse(chain: ChainedIndicator, workload=None,
                   table_index: int = 0, mode: str = "auto"):
    """Apply the collapse policy to one chain; returns ``(indicator, decision)``.

    ``mode`` is the builder's ``collapse=`` argument: ``"auto"`` consults
    :func:`decide_collapse`, ``"always"``/``"never"`` force the verdict (the
    decision records the forced reason so ``explain()`` stays honest).
    """
    if mode not in ("auto", "always", "never"):
        raise ValueError(f"collapse mode must be auto/always/never, got {mode!r}")
    decision = decide_collapse(chain, workload, table_index)
    if mode == "always" and chain.num_hops > 1:
        decision = ChainDecision(
            table_index=table_index, num_hops=decision.num_hops,
            head_nnz=decision.head_nnz, tail_nnz=decision.tail_nnz,
            passes=decision.passes, collapse=True, reason="forced by collapse='always'",
        )
    elif mode == "never":
        decision = ChainDecision(
            table_index=table_index, num_hops=decision.num_hops,
            head_nnz=decision.head_nnz, tail_nnz=decision.tail_nnz,
            passes=decision.passes, collapse=False, reason="forced by collapse='never'",
        )
    if decision.collapse:
        return chain.collapse(), decision
    return chain, decision


def plan_chain_summaries(data, workload=None) -> Optional[List[dict]]:
    """Chain decisions for *data* as JSON-ready dicts, or None when chain-free.

    Combines two sources: decisions the pipeline builder recorded when it
    collapsed chains at build time (``data.chain_decisions``), and fresh
    decisions for chains still live in ``data.indicators``.  Builder-collapsed
    chains are plain CSR by now, so the two sets never overlap.
    """
    summaries: List[dict] = []
    recorded = getattr(data, "chain_decisions", None)
    if recorded:
        summaries.extend(dict(d) for d in recorded)
    indicators = getattr(data, "indicators", None)
    if indicators is not None:
        for i, indicator in enumerate(indicators):
            if is_chain(indicator):
                summaries.append(decide_collapse(indicator, workload, i).to_json())
    return summaries or None
