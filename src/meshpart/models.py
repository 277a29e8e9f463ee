"""Desk-scale training-step graphs with known reference partitionings.

Each builder emits one full training step in SSA form: an explicit forward
pass, an explicit backward pass written with transposed DotGenerals from a
ones-constant gradient seed, and a momentum optimizer update
(``m' = beta*m + g``, ``w' = w - lr*m'`` as two binary elementwise ops per
weight).  Homologous weights of repeated layers share one equi-shard group,
and every weight has a same-shaped OptimizerState argument.

Alongside the graphs, this module provides reference plans:

* transformer — batch parallelism (BP), BP plus tensor model parallelism on
  attention heads and FFN hidden (BP+MT), and BP+MT plus parameter and
  optimizer-state sharding over the batch axis (BP+MT+ZeRO3);
* GNS-like message passing — the edge-sharding baseline (edge dim on every
  axis);
* UNet-like encoder/decoder — a BP+ZeRO3-style baseline.
"""

from __future__ import annotations

import dataclasses

from . import engine, ir
from .errors import ConfigError, GraphValidationError


# --- transformer -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TransformerConfig:
    layers: int = 2
    d_model: int = 64
    n_head: int = 4
    d_head: int = 16
    d_ff: int = 256
    batch: int = 8
    seq_len: int = 16
    element_bytes: int = 4

    def __post_init__(self):
        if self.d_model != self.n_head * self.d_head:
            raise ConfigError(
                f"d_model ({self.d_model}) must equal n_head*d_head "
                f"({self.n_head}*{self.d_head})"
            )
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 1:
                raise ConfigError(f"{field.name} must be positive")


def build_transformer(cfg: TransformerConfig = TransformerConfig()) -> ir.Graph:
    """Training step of a small pre-norm-free attention/FFN stack.

    Per layer: QKV projections into [batch, seq, head, head_dim], scaled-dot
    attention (softmax kept as one elementwise op), output projection from a
    3-D [head, head_dim, model] weight, and a two-layer FFN, with residual
    adds.  Keeping QKV and output weights 3-D lets head sharding propagate
    without any reshape in the way.
    """
    B, S, D = cfg.batch, cfg.seq_len, cfg.d_model
    H, K, F = cfg.n_head, cfg.d_head, cfg.d_ff
    eb = cfg.element_bytes
    b = ir.GraphBuilder("transformer")

    x0 = b.arg("x0", (B, S, D), role=ir.Role.DATA, group="data", element_bytes=eb)
    weights = []
    for l in range(cfg.layers):
        weights.append(
            {
                "wq": b.arg(f"wq{l}", (D, H, K), role=ir.Role.PARAMETER, group="wq", element_bytes=eb),
                "wk": b.arg(f"wk{l}", (D, H, K), role=ir.Role.PARAMETER, group="wk", element_bytes=eb),
                "wv": b.arg(f"wv{l}", (D, H, K), role=ir.Role.PARAMETER, group="wv", element_bytes=eb),
                "wo": b.arg(f"wo{l}", (H, K, D), role=ir.Role.PARAMETER, group="wo", element_bytes=eb),
                "w1": b.arg(f"w1_{l}", (D, F), role=ir.Role.PARAMETER, group="w1", element_bytes=eb),
                "w2": b.arg(f"w2_{l}", (F, D), role=ir.Role.PARAMETER, group="w2", element_bytes=eb),
            }
        )
    momenta = []
    for l in range(cfg.layers):
        momenta.append(
            {
                "wq": b.arg(f"mq{l}", (D, H, K), role=ir.Role.OPTIMIZER_STATE, group="mq", element_bytes=eb),
                "wk": b.arg(f"mk{l}", (D, H, K), role=ir.Role.OPTIMIZER_STATE, group="mk", element_bytes=eb),
                "wv": b.arg(f"mv{l}", (D, H, K), role=ir.Role.OPTIMIZER_STATE, group="mv", element_bytes=eb),
                "wo": b.arg(f"mo{l}", (H, K, D), role=ir.Role.OPTIMIZER_STATE, group="mo", element_bytes=eb),
                "w1": b.arg(f"m1_{l}", (D, F), role=ir.Role.OPTIMIZER_STATE, group="m1", element_bytes=eb),
                "w2": b.arg(f"m2_{l}", (F, D), role=ir.Role.OPTIMIZER_STATE, group="m2", element_bytes=eb),
            }
        )

    acts = []  # per-layer forward intermediates, needed again in backward
    x = x0
    for l in range(cfg.layers):
        w = weights[l]
        q = b.dot(x, w["wq"], lhs_contract=(2,), rhs_contract=(0,), name=f"q{l}")
        k = b.dot(x, w["wk"], lhs_contract=(2,), rhs_contract=(0,), name=f"k{l}")
        v = b.dot(x, w["wv"], lhs_contract=(2,), rhs_contract=(0,), name=f"v{l}")
        scores = b.dot(
            q, k, lhs_batch=(0, 2), rhs_batch=(0, 2), lhs_contract=(3,),
            rhs_contract=(3,), name=f"scores{l}",
        )  # [B, H, S, S]
        probs = b.elementwise("softmax", scores, name=f"probs{l}")
        attn = b.dot(
            probs, v, lhs_batch=(0, 1), rhs_batch=(0, 2), lhs_contract=(3,),
            rhs_contract=(1,), name=f"attn{l}",
        )  # [B, H, S, K]
        o = b.dot(attn, w["wo"], lhs_contract=(1, 3), rhs_contract=(0, 1), name=f"o{l}")
        xr = b.add(x, o, name=f"xr{l}")
        h1 = b.dot(xr, w["w1"], lhs_contract=(2,), rhs_contract=(0,), name=f"h1_{l}")
        h1a = b.elementwise("relu", h1, name=f"h1a{l}")
        h2 = b.dot(h1a, w["w2"], lhs_contract=(2,), rhs_contract=(0,), name=f"h2_{l}")
        xo = b.add(xr, h2, name=f"xo{l}")
        acts.append(
            dict(x=x, q=q, k=k, v=v, probs=probs, attn=attn, xr=xr, h1=h1, h1a=h1a)
        )
        x = xo
    final = x

    gy = b.constant((B, S, D), element_bytes=eb, name="gy")
    grads: list[dict[str, str]] = [None] * cfg.layers
    d = gy
    for l in range(cfg.layers - 1, -1, -1):
        a, w = acts[l], weights[l]
        d_h1a = b.dot(d, w["w2"], lhs_contract=(2,), rhs_contract=(1,), name=f"d_h1a{l}")
        g_w2 = b.dot(a["h1a"], d, lhs_contract=(0, 1), rhs_contract=(0, 1), name=f"g_w2_{l}")
        mask1 = b.elementwise("relu_grad", a["h1"], name=f"mask1_{l}")
        d_h1 = b.mul(d_h1a, mask1, name=f"d_h1_{l}")
        d_xr_f = b.dot(d_h1, w["w1"], lhs_contract=(2,), rhs_contract=(1,), name=f"d_xrf{l}")
        g_w1 = b.dot(a["xr"], d_h1, lhs_contract=(0, 1), rhs_contract=(0, 1), name=f"g_w1_{l}")
        d_xr = b.add(d, d_xr_f, name=f"d_xr{l}")
        d_attn0 = b.dot(d_xr, w["wo"], lhs_contract=(2,), rhs_contract=(2,), name=f"d_attn0_{l}")
        d_attn = b.transpose(d_attn0, (0, 2, 1, 3), name=f"d_attn{l}")
        g_wo = b.dot(a["attn"], d_xr, lhs_contract=(0, 2), rhs_contract=(0, 1), name=f"g_wo_{l}")
        d_probs = b.dot(
            d_attn, a["v"], lhs_batch=(0, 1), rhs_batch=(0, 2), lhs_contract=(3,),
            rhs_contract=(3,), name=f"d_probs{l}",
        )
        d_v0 = b.dot(
            a["probs"], d_attn, lhs_batch=(0, 1), rhs_batch=(0, 1), lhs_contract=(2,),
            rhs_contract=(2,), name=f"d_v0_{l}",
        )
        d_v = b.transpose(d_v0, (0, 2, 1, 3), name=f"d_v{l}")
        d_scores = b.mul(d_probs, a["probs"], name=f"d_scores{l}")
        d_q0 = b.dot(
            d_scores, a["k"], lhs_batch=(0, 1), rhs_batch=(0, 2), lhs_contract=(3,),
            rhs_contract=(1,), name=f"d_q0_{l}",
        )
        d_q = b.transpose(d_q0, (0, 2, 1, 3), name=f"d_q{l}")
        d_k0 = b.dot(
            d_scores, a["q"], lhs_batch=(0, 1), rhs_batch=(0, 2), lhs_contract=(2,),
            rhs_contract=(1,), name=f"d_k0_{l}",
        )
        d_k = b.transpose(d_k0, (0, 2, 1, 3), name=f"d_k{l}")
        g_wq = b.dot(a["x"], d_q, lhs_contract=(0, 1), rhs_contract=(0, 1), name=f"g_wq_{l}")
        g_wk = b.dot(a["x"], d_k, lhs_contract=(0, 1), rhs_contract=(0, 1), name=f"g_wk_{l}")
        g_wv = b.dot(a["x"], d_v, lhs_contract=(0, 1), rhs_contract=(0, 1), name=f"g_wv_{l}")
        grads[l] = dict(wq=g_wq, wk=g_wk, wv=g_wv, wo=g_wo, w1=g_w1, w2=g_w2)
        if l > 0:  # the layer-0 input is data; its gradient is never used
            d_xq = b.dot(d_q, w["wq"], lhs_contract=(2, 3), rhs_contract=(1, 2), name=f"d_xq{l}")
            d_xk = b.dot(d_k, w["wk"], lhs_contract=(2, 3), rhs_contract=(1, 2), name=f"d_xk{l}")
            d_xv = b.dot(d_v, w["wv"], lhs_contract=(2, 3), rhs_contract=(1, 2), name=f"d_xv{l}")
            s1 = b.add(d_xq, d_xk, name=f"d_xs1_{l}")
            s2 = b.add(s1, d_xv, name=f"d_xs2_{l}")
            d = b.add(s2, d_xr, name=f"d_x{l}")

    updated = [final]
    for l in range(cfg.layers):
        for wname in ("wq", "wk", "wv", "wo", "w1", "w2"):
            m_new = b.elementwise(
                "momentum", momenta[l][wname], grads[l][wname], name=f"mnew_{wname}{l}"
            )
            w_new = b.elementwise(
                "sgd_step", weights[l][wname], m_new, name=f"wnew_{wname}{l}"
            )
            updated.extend([w_new, m_new])
    b.output(*updated)
    return b.build()


# transformer group ids, fixed by argument declaration order
T_DATA, T_WQ, T_WK, T_WV, T_WO, T_W1, T_W2 = range(7)
T_MQ, T_MK, T_MV, T_MO, T_M1, T_M2 = range(7, 13)


def transformer_expert_plans(mesh: ir.Mesh) -> dict[str, tuple[engine.Action, ...]]:
    """Hand-written reference plans on the first (batch-like) and second
    (model-like) mesh axes: bp, bp_mt, bp_mt_zero3."""
    if len(mesh.axes) < 2:
        raise ConfigError("expert transformer plans need a 2-axis mesh")
    ab, am = mesh.axis_names[0], mesh.axis_names[1]
    bp = (engine.Action(T_DATA, 0, ab),)
    bp_mt = bp + (engine.Action(T_WQ, 1, am), engine.Action(T_W1, 1, am))
    zero3 = bp_mt + (
        engine.Action(T_WQ, 0, ab),
        engine.Action(T_WK, 0, ab),
        engine.Action(T_WV, 0, ab),
        engine.Action(T_WO, 2, ab),
        engine.Action(T_W1, 0, ab),
        engine.Action(T_W2, 0, ab),
    )
    return {"bp": bp, "bp_mt": bp_mt, "bp_mt_zero3": zero3}


# --- GNS-like message passing ------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GnsLikeConfig:
    message_passing_steps: int = 2
    mlp_hidden: int = 128
    latent: int = 64
    nodes: int = 128
    edges: int = 256
    element_bytes: int = 4

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 1:
                raise ConfigError(f"{field.name} must be positive")


def build_gns_like(cfg: GnsLikeConfig = GnsLikeConfig()) -> ir.Graph:
    """Message passing over a fixed graph, as dense ops.

    Sender/receiver selection and segment-sum aggregation are DotGenerals
    against constant incidence matrices, so sharding the edge or node dim
    flows through them like any other contraction.  Edge and node features
    are Data arguments in their own groups, which makes the edge-sharding
    baseline an ordinary action plan.
    """
    N, E, L, Hh = cfg.nodes, cfg.edges, cfg.latent, cfg.mlp_hidden
    eb = cfg.element_bytes
    b = ir.GraphBuilder("gns_like")

    n0 = b.arg("n0", (N, L), role=ir.Role.DATA, group="nodes", element_bytes=eb)
    e0 = b.arg("e0", (E, L), role=ir.Role.DATA, group="edges", element_bytes=eb)
    steps = cfg.message_passing_steps
    weights = []
    for s in range(steps):
        weights.append(
            {
                "we1": b.arg(f"we1_{s}", (L, Hh), role=ir.Role.PARAMETER, group="we1", element_bytes=eb),
                "we2": b.arg(f"we2_{s}", (Hh, L), role=ir.Role.PARAMETER, group="we2", element_bytes=eb),
                "wn1": b.arg(f"wn1_{s}", (L, Hh), role=ir.Role.PARAMETER, group="wn1", element_bytes=eb),
                "wn2": b.arg(f"wn2_{s}", (Hh, L), role=ir.Role.PARAMETER, group="wn2", element_bytes=eb),
            }
        )
    momenta = []
    for s in range(steps):
        momenta.append(
            {
                "we1": b.arg(f"me1_{s}", (L, Hh), role=ir.Role.OPTIMIZER_STATE, group="me1", element_bytes=eb),
                "we2": b.arg(f"me2_{s}", (Hh, L), role=ir.Role.OPTIMIZER_STATE, group="me2", element_bytes=eb),
                "wn1": b.arg(f"mn1_{s}", (L, Hh), role=ir.Role.OPTIMIZER_STATE, group="mn1", element_bytes=eb),
                "wn2": b.arg(f"mn2_{s}", (Hh, L), role=ir.Role.OPTIMIZER_STATE, group="mn2", element_bytes=eb),
            }
        )

    inc_s = b.constant((E, N), element_bytes=eb, name="inc_send")
    inc_r = b.constant((E, N), element_bytes=eb, name="inc_recv")
    inc_st = b.constant((N, E), element_bytes=eb, name="inc_send_t")
    inc_rt = b.constant((N, E), element_bytes=eb, name="inc_recv_t")

    acts = []
    n_cur, e_cur = n0, e0
    for s in range(steps):
        w = weights[s]
        sent = b.dot(inc_s, n_cur, lhs_contract=(1,), rhs_contract=(0,), name=f"sent{s}")
        recv = b.dot(inc_r, n_cur, lhs_contract=(1,), rhs_contract=(0,), name=f"recv{s}")
        m1 = b.add(sent, recv, name=f"msg{s}")
        eh = b.add(m1, e_cur, name=f"eh{s}")
        t1 = b.dot(eh, w["we1"], lhs_contract=(1,), rhs_contract=(0,), name=f"t1_{s}")
        t1a = b.elementwise("relu", t1, name=f"t1a{s}")
        e_next = b.dot(t1a, w["we2"], lhs_contract=(1,), rhs_contract=(0,), name=f"e{s + 1}")
        agg = b.dot(inc_rt, e_next, lhs_contract=(1,), rhs_contract=(0,), name=f"agg{s}")
        nh = b.add(agg, n_cur, name=f"nh{s}")
        t2 = b.dot(nh, w["wn1"], lhs_contract=(1,), rhs_contract=(0,), name=f"t2_{s}")
        t2a = b.elementwise("relu", t2, name=f"t2a{s}")
        n_next = b.dot(t2a, w["wn2"], lhs_contract=(1,), rhs_contract=(0,), name=f"n{s + 1}")
        acts.append(dict(n=n_cur, e=e_cur, eh=eh, t1=t1, t1a=t1a, nh=nh, t2=t2, t2a=t2a))
        n_cur, e_cur = n_next, e_next

    gy = b.constant((N, L), element_bytes=eb, name="gy")
    grads: list[dict[str, str]] = [None] * steps
    d_n, d_e = gy, None
    for s in range(steps - 1, -1, -1):
        a, w = acts[s], weights[s]
        d_t2a = b.dot(d_n, w["wn2"], lhs_contract=(1,), rhs_contract=(1,), name=f"d_t2a{s}")
        g_wn2 = b.dot(a["t2a"], d_n, lhs_contract=(0,), rhs_contract=(0,), name=f"g_wn2_{s}")
        mask2 = b.elementwise("relu_grad", a["t2"], name=f"mask2_{s}")
        d_t2 = b.mul(d_t2a, mask2, name=f"d_t2_{s}")
        d_nh = b.dot(d_t2, w["wn1"], lhs_contract=(1,), rhs_contract=(1,), name=f"d_nh{s}")
        g_wn1 = b.dot(a["nh"], d_t2, lhs_contract=(0,), rhs_contract=(0,), name=f"g_wn1_{s}")
        d_e1 = b.dot(inc_r, d_nh, lhs_contract=(1,), rhs_contract=(0,), name=f"d_e1_{s}")
        d_e_total = b.add(d_e1, d_e, name=f"d_e{s}") if d_e is not None else d_e1
        d_t1a = b.dot(d_e_total, w["we2"], lhs_contract=(1,), rhs_contract=(1,), name=f"d_t1a{s}")
        g_we2 = b.dot(a["t1a"], d_e_total, lhs_contract=(0,), rhs_contract=(0,), name=f"g_we2_{s}")
        mask1 = b.elementwise("relu_grad", a["t1"], name=f"mask1_{s}")
        d_t1 = b.mul(d_t1a, mask1, name=f"d_t1_{s}")
        d_eh = b.dot(d_t1, w["we1"], lhs_contract=(1,), rhs_contract=(1,), name=f"d_eh{s}")
        g_we1 = b.dot(a["eh"], d_t1, lhs_contract=(0,), rhs_contract=(0,), name=f"g_we1_{s}")
        grads[s] = dict(we1=g_we1, we2=g_we2, wn1=g_wn1, wn2=g_wn2)
        d_e = d_eh
        if s > 0:
            d_ns = b.dot(inc_st, d_eh, lhs_contract=(1,), rhs_contract=(0,), name=f"d_ns{s}")
            d_nr = b.dot(inc_rt, d_eh, lhs_contract=(1,), rhs_contract=(0,), name=f"d_nr{s}")
            t = b.add(d_ns, d_nr, name=f"d_nm{s}")
            d_n = b.add(t, d_nh, name=f"d_n{s}")

    updated = [n_cur]
    for s in range(steps):
        for wname in ("we1", "we2", "wn1", "wn2"):
            m_new = b.elementwise(
                "momentum", momenta[s][wname], grads[s][wname], name=f"mnew_{wname}{s}"
            )
            w_new = b.elementwise(
                "sgd_step", weights[s][wname], m_new, name=f"wnew_{wname}{s}"
            )
            updated.extend([w_new, m_new])
    b.output(*updated)
    return b.build()


G_NODES, G_EDGES = 0, 1


def gns_edge_sharding_plan(mesh: ir.Mesh) -> tuple[engine.Action, ...]:
    """Shard the edge dimension on every mesh axis."""
    return tuple(engine.Action(G_EDGES, 0, a) for a in mesh.axis_names)


# --- UNet-like encoder/decoder ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class UNetLikeConfig:
    widths: tuple[int, ...] = (64, 128, 256)
    batch: int = 16
    skip_connections: bool = True
    element_bytes: int = 4

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("need at least 2 widths (encoder depth >= 1)")
        if self.batch < 1 or any(w < 1 for w in self.widths):
            raise ConfigError("batch and widths must be positive")


def build_unet_like(cfg: UNetLikeConfig = UNetLikeConfig()) -> ir.Graph:
    """Mirrored dense encoder/decoder with skip adds across the bottleneck.

    The skip connections tie decoder activations to encoder activations
    produced many ops earlier, which exercises long-range propagation; the
    convolution stages of the original architecture are stand-in dense
    blocks of matching widths.
    """
    widths = tuple(cfg.widths)
    B = cfg.batch
    eb = cfg.element_bytes
    levels = len(widths) - 1
    b = ir.GraphBuilder("unet_like")

    x0 = b.arg("x0", (B, widths[0]), role=ir.Role.DATA, group="data", element_bytes=eb)
    enc_w = [
        b.arg(f"we{i}", (widths[i], widths[i + 1]), role=ir.Role.PARAMETER,
              group=f"we{i}", element_bytes=eb)
        for i in range(levels)
    ]
    wb = b.arg("wb", (widths[-1], widths[-1]), role=ir.Role.PARAMETER, group="wb", element_bytes=eb)
    dec_w = [
        b.arg(f"wu{i}", (widths[i + 1], widths[i]), role=ir.Role.PARAMETER,
              group=f"wu{i}", element_bytes=eb)
        for i in range(levels - 1, -1, -1)
    ]
    dec_w.reverse()  # dec_w[i] maps widths[i+1] -> widths[i]
    wy = b.arg("wy", (widths[0], widths[0]), role=ir.Role.PARAMETER, group="wy", element_bytes=eb)
    weight_args = enc_w + [wb] + list(reversed(dec_w)) + [wy]
    mom_args = [
        b.arg(f"m_{wid}", b.type_of(wid).dims, role=ir.Role.OPTIMIZER_STATE,
              group=f"m_{wid}", element_bytes=eb)
        for wid in weight_args
    ]
    mom_of = dict(zip(weight_args, mom_args))

    enc_in, enc_pre, enc_act = [], [], []
    cur = x0
    for i in range(levels):
        enc_in.append(cur)
        pre = b.dot(cur, enc_w[i], lhs_contract=(1,), rhs_contract=(0,), name=f"pe{i}")
        act = b.elementwise("relu", pre, name=f"e{i}")
        enc_pre.append(pre)
        enc_act.append(act)
        cur = act
    pre_b = b.dot(cur, wb, lhs_contract=(1,), rhs_contract=(0,), name="pb")
    act_b = b.elementwise("relu", pre_b, name="bneck")
    cur = act_b
    dec_in, dec_pre, dec_out = [None] * levels, [None] * levels, [None] * levels
    for i in range(levels - 1, -1, -1):
        dec_in[i] = cur
        pre = b.dot(cur, dec_w[i], lhs_contract=(1,), rhs_contract=(0,), name=f"pu{i}")
        act = b.elementwise("relu", pre, name=f"u{i}")
        dec_pre[i] = pre
        if cfg.skip_connections:
            partner = enc_act[i - 1] if i > 0 else x0
            act = b.add(act, partner, name=f"s{i}")
        dec_out[i] = act
        cur = act
    y = b.dot(cur, wy, lhs_contract=(1,), rhs_contract=(0,), name="y")

    gy = b.constant((B, widths[0]), element_bytes=eb, name="gy")
    grad_of: dict[str, str] = {}
    grad_of[wy] = b.dot(dec_out[0], gy, lhs_contract=(0,), rhs_contract=(0,), name="g_wy")
    d_cur = b.dot(gy, wy, lhs_contract=(1,), rhs_contract=(1,), name="d_y")
    d_skip: dict[int, str] = {}  # encoder level -> gradient arriving via a skip
    for i in range(levels):
        if cfg.skip_connections and i > 0:
            d_skip[i - 1] = d_cur  # the add passes d_cur into the partner too
        mask = b.elementwise("relu_grad", dec_pre[i], name=f"mu{i}")
        d_pre = b.mul(d_cur, mask, name=f"d_pu{i}")
        grad_of[dec_w[i]] = b.dot(
            dec_in[i], d_pre, lhs_contract=(0,), rhs_contract=(0,), name=f"g_wu{i}"
        )
        d_cur = b.dot(d_pre, dec_w[i], lhs_contract=(1,), rhs_contract=(1,), name=f"d_u{i}")
    mask = b.elementwise("relu_grad", pre_b, name="mb")
    d_pre = b.mul(d_cur, mask, name="d_pb")
    grad_of[wb] = b.dot(enc_act[-1], d_pre, lhs_contract=(0,), rhs_contract=(0,), name="g_wb")
    d_cur = b.dot(d_pre, wb, lhs_contract=(1,), rhs_contract=(1,), name="d_b")
    for i in range(levels - 1, -1, -1):
        if i in d_skip:
            d_cur = b.add(d_cur, d_skip[i], name=f"d_se{i}")
        mask = b.elementwise("relu_grad", enc_pre[i], name=f"me{i}")
        d_pre = b.mul(d_cur, mask, name=f"d_pe{i}")
        grad_of[enc_w[i]] = b.dot(
            enc_in[i], d_pre, lhs_contract=(0,), rhs_contract=(0,), name=f"g_we{i}"
        )
        if i > 0:
            d_cur = b.dot(d_pre, enc_w[i], lhs_contract=(1,), rhs_contract=(1,), name=f"d_e{i}")

    updated = [y]
    for wid in weight_args:
        m_new = b.elementwise("momentum", mom_of[wid], grad_of[wid], name=f"mnew_{wid}")
        w_new = b.elementwise("sgd_step", wid, m_new, name=f"wnew_{wid}")
        updated.extend([w_new, m_new])
    b.output(*updated)
    return b.build()


def unet_zero3_plan(graph: ir.Graph, mesh: ir.Mesh) -> tuple[engine.Action, ...]:
    """Batch-shard the data and shard every parameter on the first axis."""
    a1 = mesh.axis_names[0]
    actions = [engine.Action(0, 0, a1)]
    for g in graph.groups:
        if g.id == 0:
            continue
        member = g.members[0]
        if not member.startswith("m_"):  # momenta follow their weights by propagation
            actions.append(engine.Action(g.id, 0, a1))
    return tuple(actions)


# --- shared helpers ----------------------------------------------------------

MODEL_BUILDERS = {
    "transformer": (TransformerConfig, build_transformer),
    "gns": (GnsLikeConfig, build_gns_like),
    "unet": (UNetLikeConfig, build_unet_like),
}


# config field annotation -> (accepts the value, what it must be); bool is an
# int subclass, so the integer tests compare exact types
_FIELD_RULES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(type(w) is int for w in v),
        "a list of integers",
    ),
}


def build_named_model(name: str, cfg_overrides: dict | None = None) -> ir.Graph:
    entry = MODEL_BUILDERS.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown model {name!r}; available: {', '.join(sorted(MODEL_BUILDERS))}"
        )
    cfg_cls, builder = entry
    overrides = dict(cfg_overrides or {})
    for field in dataclasses.fields(cfg_cls):
        if field.name not in overrides:
            continue  # unknown names are left to the constructor to reject
        value = overrides[field.name]
        accepts, expected = _FIELD_RULES[field.type]
        if not accepts(value):
            raise ConfigError(
                f"bad model config for {name!r}: {field.name} must be {expected}, "
                f"got {value!r}"
            )
        if isinstance(value, list):
            overrides[field.name] = tuple(value)
    try:
        cfg = cfg_cls(**overrides)
    except TypeError as e:
        raise ConfigError(f"bad model config for {name!r}: {e}") from e
    return builder(cfg)


def check_mesh_compatibility(graph: ir.Graph, mesh: ir.Mesh) -> None:
    """Every mesh axis must be able to shard something, or the mesh is unusable."""
    state = engine.initial_state(graph, mesh)
    unusable = [axis for axis in mesh.axis_names if not engine.legal_actions(state, axis)]
    if not unusable:
        return
    example = ""
    if graph.groups:
        group = graph.groups[0]
        dims = next(a.type.dims for a in graph.args if a.id == group.members[0])
        example = f" (e.g. group {group.id} dims {dims})"
    raise GraphValidationError(
        f"mesh is incompatible with graph {graph.name!r}: "
        + "; ".join(
            f"axis {axis!r} (size {mesh.axis_size(axis)}) divides no dimension of any "
            f"argument group{example}"
            for axis in unusable
        )
    )
