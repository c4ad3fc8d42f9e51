"""Setup shared by the serving figures (fig25–fig32).

Each serving figure's ``run()`` takes only ``quick`` (and ``jobs`` where it
compiles per run); every other setting is a constant at the top of its
module, with quick/full pairs where the quick grid shrinks it.  What the
figures have in common lives here: the search constraints, the warm-up
miss accounting, model-relative decode streams, the placement digest and
its ``jobs=2`` recheck, per-tenant row scopes, the dip/recovery columns of
the chaos figures, and the three-tenant fleet mix fig30 and fig31 replay.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.hw.spec import IPU_MK2
from repro.models import build_bert, build_vit, opt_decode_session
from repro.obs import Tracer, use_tracer
from repro.serving import (
    CacheStats,
    ContinuousReport,
    DecodeModel,
    DecodeRequest,
    FleetEngine,
    PlanCache,
    TenantSpec,
    decode_workload,
    dip_and_recovery,
)

#: The chip every serving figure deploys on (the default hardware class).
CHIP = IPU_MK2

#: Base seed of every arrival stream.
SEED = 0


def constraints_for(quick: bool) -> SearchConstraints:
    """The plan-search constraints of the quick grid or of the full one."""
    return FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS


def warm(cache: PlanCache, engine) -> CacheStats:
    """Warm ``engine`` and return what it cost ``cache``; its ``misses``
    are the figures' ``warm_compiles`` column."""
    before = cache.stats.snapshot()
    engine.warm()
    return cache.stats.since(before)


def opt_deployment(
    *, num_layers: int | None, kv_len: int, max_batch_size: int = 8
) -> DecodeModel:
    """OPT-125m autoregressive decode in 64-token prefill chunks."""
    return DecodeModel(
        name="opt-125m",
        decode_builder=opt_decode_session("125m", num_layers=num_layers, kv_len=kv_len),
        max_batch_size=max_batch_size,
        prefill_chunk=64,
    )


#: Prompt and output-budget ranges of the decode traffic (inclusive).
PROMPT_TOKENS = (16, 128)
OUTPUT_TOKENS = (4, 48)


def decode_rate(
    model: DecodeModel,
    unit: float,
    load: float,
    prompt_tokens: tuple[int, int] = PROMPT_TOKENS,
    output_tokens: tuple[int, int] = OUTPUT_TOKENS,
) -> float:
    """Arrival rate of ``load`` times the unbatched capacity of one replica
    serving the mean request, at ``unit`` seconds per decode iteration."""
    mean_iterations = model.ideal_iterations(
        (prompt_tokens[0] + prompt_tokens[1]) // 2,
        (output_tokens[0] + output_tokens[1]) // 2,
    )
    return load / (mean_iterations * unit)


def decode_stream(
    model: DecodeModel,
    unit: float,
    *,
    load: float,
    slo_factor: float,
    num_requests: int,
    interactive_fraction: float,
    seed: int = SEED,
    prompt_tokens: tuple[int, int] = PROMPT_TOKENS,
    output_tokens: tuple[int, int] = OUTPUT_TOKENS,
    tenant: str = "",
) -> list[DecodeRequest]:
    """A Poisson decode stream at :func:`decode_rate` whose deadlines are
    ``slo_factor`` times each request's ideal service time at ``unit``
    seconds per iteration."""
    return decode_workload(
        model.name,
        num_requests=num_requests,
        rate=decode_rate(model, unit, load, prompt_tokens, output_tokens),
        seed=seed,
        prompt_tokens=prompt_tokens,
        output_tokens=output_tokens,
        interactive_fraction=interactive_fraction,
        slo_seconds=lambda prompt, output: (
            slo_factor * model.ideal_iterations(prompt, output) * unit
        ),
        tenant=tenant,
    )


def placement_digest(report: ContinuousReport) -> str:
    """Deterministic fingerprint of every request's fate: replica placement,
    tokens generated and virtual completion time.  Two runs of the same
    workload agree on this digest iff they made identical scheduling
    decisions — the bit-identity the jobs sweep asserts."""
    payload = ";".join(
        f"{record.request.request_id}:{record.replica}:"
        f"{record.tokens_generated}:{record.completion_time!r}"
        for record in report.completed
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def identical_at_jobs2(
    build: Callable[[PlanCache], FleetEngine],
    replay: Callable[[FleetEngine], ContinuousReport],
    digest: str,
) -> bool:
    """Whether a fresh engine on a cold ``jobs=2`` cache reproduces every
    placement of ``digest``: ``build(cache)`` makes the engine and
    ``replay(engine)`` runs the scheme on it.

    The recheck is internal verification, not part of the figure, so its
    events go to a throwaway tracer instead of the figure's lanes.
    """
    cache = PlanCache(jobs=2)
    with use_tracer(Tracer()):
        engine = build(cache)
        engine.warm()
        return placement_digest(replay(engine)) == digest


def tenant_scopes(report: ContinuousReport) -> list[tuple[str, ContinuousReport]]:
    """The fleet-wide report as tenant ``"all"``, then one slice per tenant."""
    slices = report.per_tenant()
    return [("all", report)] + [(tenant, slices[tenant]) for tenant in report.tenants]


def attainment(scope: ContinuousReport) -> float:
    """SLO attainment, with NaN (no deadline-carrying request) as -1.0 so
    rows stay comparable with plain ``==``."""
    value = scope.slo_attainment
    return -1.0 if math.isnan(value) else value


def dip_columns(
    report: ContinuousReport,
    *,
    fault_time: float,
    window: float,
    horizon: float | None = None,
) -> tuple[float | None, float | None, float]:
    """``(pre_fault_goodput_rps, dip_depth, recovery_ms)`` of a run whose
    first chip dies at ``fault_time``; a fault-free run (``inf``) reads
    ``(None, 0.0, 0.0)``.

    NaN (nothing completed before the fault) becomes None so rows stay
    comparable with plain ``==`` (the reproducibility tests rely on it); a
    dip that never recovers reads ``inf`` milliseconds.
    """
    if math.isfinite(fault_time):
        baseline, dip_depth, recovery = dip_and_recovery(
            report.completed, fault_time=fault_time, window=window, horizon=horizon
        )
    else:
        baseline, dip_depth, recovery = float("nan"), 0.0, 0.0

    def clean(value: float) -> float | None:
        return None if math.isnan(value) else value

    recovery_ms = recovery * 1e3 if math.isfinite(recovery) else float("inf")
    return clean(baseline), clean(dip_depth), recovery_ms


# --------------------------------------------------------------------------- #
# The three-tenant fleet mix of fig30 and fig31
# --------------------------------------------------------------------------- #
#: Chips in the mixed fleet; fig30 recasts the last one, fig31 the last two,
#: as the fig22 GPU class.
MIX_NUM_CHIPS = 4

#: The tenants, in stream order: a hot ``chat`` tenant driving OPT decode,
#: a moderate ``search`` tenant on BERT and a light ``vision`` tenant on ViT.
MIX_TENANTS = (
    TenantSpec("chat", fairness_floor=0.35),
    TenantSpec("search", fairness_floor=0.6),
    TenantSpec("vision", fairness_floor=0.6),
)

#: Declared fairness floor per tenant (the fleet-wide ``"all"`` row has none).
MIX_FLOORS = {spec.name: spec.fairness_floor for spec in MIX_TENANTS}

#: fig30's static partition: the chips each tenant's model is pinned to,
#: the GPU last.  Offered load is expressed in these shares in fig31 too.
MIX_PARTITION = {
    "chat": list(range(MIX_NUM_CHIPS - 2)),
    "search": [MIX_NUM_CHIPS - 2],
    "vision": [MIX_NUM_CHIPS - 1],
}

#: Each tenant's offered load, relative to its partition share's unbatched
#: capacity.
MIX_LOAD_FACTORS = (11.0, 2.0, 1.0)

#: Deadlines over ideal service time: decode traffic, then single-pass.
MIX_SLO_FACTOR = 1.5
MIX_SINGLE_PASS_SLO_FACTOR = 8.0

#: Requests per tenant, decoder layers, KV length and encoder sequence
#: length: the full grid, then the quick grid.
MIX_NUM_REQUESTS, QUICK_MIX_NUM_REQUESTS = (90, 40, 20), (70, 30, 15)
MIX_NUM_LAYERS, QUICK_MIX_NUM_LAYERS = 2, 1
MIX_KV_LEN, QUICK_MIX_KV_LEN = 1024, 256
MIX_SEQ_LEN, QUICK_MIX_SEQ_LEN = 64, 32


def mix_models(quick: bool) -> dict[str, DecodeModel]:
    """The model each tenant drives, keyed by tenant name.

    BERT and ViT are single-forward-pass models wrapped as one-iteration
    :class:`DecodeModel` deployments (prompt within one prefill chunk,
    one output token), which is what lets autoregressive and single-pass
    traffic share one engine, one pool and one report schema.
    """
    num_layers = QUICK_MIX_NUM_LAYERS if quick else MIX_NUM_LAYERS
    kv_len = QUICK_MIX_KV_LEN if quick else MIX_KV_LEN
    seq_len = QUICK_MIX_SEQ_LEN if quick else MIX_SEQ_LEN
    return {
        "chat": opt_deployment(num_layers=num_layers, kv_len=kv_len),
        "search": DecodeModel(
            name="bert",
            decode_builder=lambda batch: build_bert(
                batch, seq_len=seq_len, num_layers=num_layers
            ),
            max_batch_size=4,
            prefill_chunk=64,
        ),
        "vision": DecodeModel(
            name="vit",
            decode_builder=lambda batch: build_vit(batch, num_layers=num_layers),
            max_batch_size=4,
            prefill_chunk=64,
        ),
    }


def mix_engine(
    models: dict[str, DecodeModel],
    router,
    cache: PlanCache,
    *,
    chip_classes: dict,
    quick: bool,
) -> FleetEngine:
    """A fleet engine serving the mix on ``MIX_NUM_CHIPS`` chips."""
    return FleetEngine(
        list(models.values()),
        tenants=MIX_TENANTS,
        chip=CHIP,
        num_chips=MIX_NUM_CHIPS,
        chip_classes=chip_classes,
        router=router,
        constraints=constraints_for(quick),
        plan_cache=cache,
    )


def mix_streams(
    reference: FleetEngine, models: dict[str, DecodeModel], *, quick: bool
) -> list[list[DecodeRequest]]:
    """One arrival stream per tenant, in ``MIX_TENANTS`` order.

    Offered load is in model-relative units (the fig27 convention): each
    tenant's rate is its load factor times its share's unbatched capacity
    on ``reference``, and deadlines scale with ideal service time.
    """
    num_requests = QUICK_MIX_NUM_REQUESTS if quick else MIX_NUM_REQUESTS
    streams = []
    for index, spec in enumerate(MIX_TENANTS):
        model = models[spec.name]
        decodes = spec.name == "chat"
        prompt_tokens, output_tokens = (16, 64), ((4, 48) if decodes else (1, 1))
        streams.append(
            decode_stream(
                model,
                reference.iteration_latency(model.name, 1),
                load=MIX_LOAD_FACTORS[index] * len(MIX_PARTITION[spec.name]),
                slo_factor=MIX_SLO_FACTOR if decodes else MIX_SINGLE_PASS_SLO_FACTOR,
                num_requests=num_requests[index],
                interactive_fraction=0.75 if decodes else 1.0,
                seed=SEED + index,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                tenant=spec.name,
            )
        )
    return streams
