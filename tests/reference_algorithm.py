"""Straight-line single-loop reference of the synchronous actor-critic.

Written independently of the engine (no shared package code): every
update rule, the softmax, the sampling discipline, the trimming and the
Metropolis mixing are spelled out inline with plain numpy, one agent at a
time. Covered features:

- tabular critics, or a projection critic given as its feature matrix
  (Q is a per-row ``np.dot``);
- heterogeneous action counts;
- a static graph or a periodic schedule (round t uses phase t mod P);
- coordinate-wise trimming of the f highest and f lowest received values,
  ties broken by ascending sender id, the self-weight absorbing the mass of
  whatever was trimmed (:func:`stable_rank_keep`, which also states the
  NaN rule);
- constant, drift, noise and selfish adversaries, which run their own
  local updates, keep their staged critic and broadcast a fabricated
  payload (a selfish one broadcasts its staged critic);
- additive uniform reward noise;
- the logging rule and early stop: a snapshot every ``log_interval``
  rounds and after the last round, and a stop, with a final snapshot,
  once the regular critics' spread and the largest actor move have both
  stayed below their thresholds for ``patience`` rounds in a row.

Random-draw contract mirrored from the engine docs: one uniform draw per
agent (ascending id) for the initial action, then per round one draw for
the transition, one noise vector when reward noise is on, and one draw per
agent for action selection.
"""
import numpy as np


def stable_rank_keep(received, f):
    """Per sender, the coordinates where its value survives trimming.

    A sender's stable rank at a coordinate counts the senders whose value
    there is strictly below its own, plus the senders with an equal value
    and a lower position in ``received`` (ascending sender id). The value
    survives when f <= rank < k - f; with k <= 2f nothing survives.

    NaN rule: a NaN compares false with everything, itself included, so a
    NaN has rank 0 and counts below no one; the other senders rank as if
    it were not there.
    """
    k = len(received)
    dim = len(received[0]) if k else 0
    keep = [np.zeros(dim, dtype=bool) for _ in range(k)]
    if k > 2 * f:
        for j in range(k):
            rank = np.zeros(dim, dtype=np.int64)
            for l in range(k):
                rank += received[l] < received[j]
                if l < j:
                    rank += received[l] == received[j]
            keep[j] = (rank >= f) & (rank < k - f)
    return keep


def run_reference(
    transition,
    rewards,
    action_counts,
    edges,
    n_rounds,
    seed,
    critic_scale=1.0,
    critic_exponent=0.65,
    actor_scale=1.0,
    actor_exponent=0.85,
    initial_state=0,
    phases=None,
    trim_f=0,
    adversaries=None,
    reward_noise=0.0,
    features=None,
    trim_events=None,
    log_interval=1,
    early_stop=None,
    logged_rounds=None,
):
    """Return parameter snapshots [(thetas, omegas, mus), ...] at the logged rounds.

    The first snapshot is the initial state (all zeros). One more follows
    each round whose completed-round count is a multiple of
    ``log_interval``, the last round, and the round the run stops in, so
    with the default ``log_interval=1`` and no early stop the list has
    n_rounds + 1 entries. ``early_stop`` is ``(disagreement, actor_update,
    patience)``: a round is calm when the largest coordinate-wise spread
    of the regular agents' mixed critics is below ``disagreement`` and no
    agent's actor moved by ``actor_update`` or more in any coordinate;
    the run stops after ``patience`` calm rounds in a row. A
    ``logged_rounds`` list receives the completed-round count of each
    snapshot.

    ``phases`` (a list of edge lists) replaces ``edges`` when given.
    ``adversaries`` maps an agent id to ``("constant", value)``,
    ``("drift", start, rate)``, ``("noise", scale, seed)`` or
    ``("selfish",)``. ``features`` is the (n_states *
    n_joint, dim) projection matrix; None means a tabular critic. A
    ``trim_events`` list receives ``(t, agent, senders)`` for every regular
    agent that trimmed some senders at every coordinate, in round and agent
    order.
    """
    transition = np.asarray(transition, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    n_agents = len(action_counts)
    n_states = transition.shape[0]
    n_joint = int(np.prod(action_counts))
    adversaries = dict(adversaries or {})
    if phases is None:
        phases = [edges]
    if features is None:
        dim = n_states * n_joint
    else:
        features = np.asarray(features, dtype=np.float64)
        dim = features.shape[1]

    # per phase: ascending neighbour lists and Metropolis pair weights
    phase_neighbors = []
    phase_weights = []
    for phase_edges in phases:
        neighbors = [[] for _ in range(n_agents)]
        for u, v in phase_edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        neighbors = [sorted(ns) for ns in neighbors]
        degree = [len(ns) for ns in neighbors]
        phase_neighbors.append(neighbors)
        phase_weights.append([
            [1.0 / (1.0 + max(degree[i], degree[j])) for j in neighbors[i]]
            for i in range(n_agents)
        ])

    def encode(local_actions):
        idx = 0
        for x, c in zip(local_actions, action_counts):
            idx = idx * c + x
        return idx

    def decode(joint):
        out = [0] * n_agents
        rem = joint
        for i in range(n_agents - 1, -1, -1):
            out[i] = rem % action_counts[i]
            rem //= action_counts[i]
        return out

    def softmax_probs(theta_i, n_acts, s):
        z = theta_i[s * n_acts : (s + 1) * n_acts]
        z = z - z.max()
        z = np.clip(z, -50.0, 50.0)
        e = np.exp(z)
        return e / e.sum()

    def sample(probs, u):
        return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)

    def q(omega_i, s, joint):
        if features is None:
            return float(omega_i[s * n_joint + joint])
        return float(np.dot(features[s * n_joint + joint], omega_i))

    def critic_gradient(s, joint):
        if features is None:
            phi = np.zeros(dim)
            phi[s * n_joint + joint] = 1.0
            return phi
        return features[s * n_joint + joint]

    def payload(i, staged_i, t):
        if i not in adversaries:
            return staged_i
        kind, *params = adversaries[i]
        if kind == "constant":
            return np.full(dim, float(params[0]))
        if kind == "drift":
            start, rate = params
            return np.full(dim, float(start)) + rate * t
        if kind == "noise":
            scale, noise_seed = params
            return scale * np.random.default_rng([noise_seed, i, t]).standard_normal(dim)
        if kind == "selfish":
            return staged_i
        raise ValueError(f"unknown adversary kind {kind!r}")

    def trim_and_mix(own, received, weights, f):
        """Own value mixed with the senders that survive trimming, per coordinate.

        Also returns, per sender, whether any of its coordinates survived.
        """
        keep = stable_rank_keep(received, f)
        acc = np.zeros(dim)
        wacc = np.zeros(dim)
        for v, w, kept in zip(received, weights, keep):
            acc = acc + np.where(kept, w * v, 0.0)
            wacc = wacc + np.where(kept, w, 0.0)
        return (1.0 - wacc) * own + acc, [kept.any() for kept in keep]

    rng = np.random.default_rng(seed)

    thetas = [np.zeros(n_states * c) for c in action_counts]
    omegas = [np.zeros(dim) for _ in range(n_agents)]
    mus = np.zeros(n_agents)

    def snapshot():
        return (
            [th.copy() for th in thetas],
            [om.copy() for om in omegas],
            mus.copy(),
        )

    s = initial_state
    a_locals = []
    for i in range(n_agents):
        probs = softmax_probs(thetas[i], action_counts[i], s)
        a_locals.append(sample(probs, rng.random()))
    a = encode(a_locals)

    history = [snapshot()]
    if logged_rounds is not None:
        logged_rounds.append(0)
    calm_rounds = 0
    for t in range(n_rounds):
        beta_w = critic_scale / (t + 1) ** critic_exponent
        beta_t = actor_scale / (t + 1) ** actor_exponent

        cdf = np.cumsum(transition[s, a])
        s_next = min(int(np.searchsorted(cdf, rng.random(), side="right")), n_states - 1)
        r = rewards[:, s, a]
        if reward_noise > 0.0:
            r = r + rng.uniform(-reward_noise, reward_noise, size=n_agents)
        mus_prev = mus
        mus = (1.0 - beta_w) * mus + beta_w * r

        a_next_locals = []
        for i in range(n_agents):
            probs = softmax_probs(thetas[i], action_counts[i], s_next)
            a_next_locals.append(sample(probs, rng.random()))
        a_next = encode(a_next_locals)

        phi = critic_gradient(s, a)
        staged = []
        actor_move = 0.0
        for i in range(n_agents):
            q_curr = q(omegas[i], s, a)
            q_next = q(omegas[i], s_next, a_next)
            delta = float(r[i]) - float(mus_prev[i]) + q_next - q_curr

            staged.append(omegas[i] + beta_w * delta * phi)

            locals_now = decode(a)
            own_action = locals_now[i]
            probs = softmax_probs(thetas[i], action_counts[i], s)
            qs = np.empty(action_counts[i])
            for b in range(action_counts[i]):
                locals_now[i] = b
                qs[b] = q(omegas[i], s, encode(locals_now))
            adv = float(qs[own_action] - np.dot(probs, qs))

            n_acts = action_counts[i]
            psi = np.zeros(n_states * n_acts)
            psi[s * n_acts : (s + 1) * n_acts] = -probs
            psi[s * n_acts + own_action] += 1.0
            new_theta = thetas[i] + beta_t * adv * psi
            actor_move = max(actor_move, float(np.abs(new_theta - thetas[i]).max()))
            thetas[i] = new_theta

        sent = [payload(i, staged[i], t) for i in range(n_agents)]
        neighbors = phase_neighbors[t % len(phases)]
        weights = phase_weights[t % len(phases)]
        new_omegas = []
        for i in range(n_agents):
            if i in adversaries or not neighbors[i]:
                new_omegas.append(staged[i])
                continue
            received = [sent[j] for j in neighbors[i]]
            mixed, survived = trim_and_mix(staged[i], received, weights[i], trim_f)
            new_omegas.append(mixed)
            dropped = tuple(j for j, ok in zip(neighbors[i], survived) if not ok)
            if dropped and trim_events is not None:
                trim_events.append((t, i, dropped))
        omegas = new_omegas

        s, a, a_locals = s_next, a_next, a_next_locals

        stop = False
        if early_stop is not None:
            max_spread, max_move, patience = early_stop
            regular = [omegas[i] for i in range(n_agents) if i not in adversaries]
            spread = 0.0
            if len(regular) > 1:
                spread = float((np.max(regular, axis=0) - np.min(regular, axis=0)).max())
            calm_rounds = calm_rounds + 1 if spread < max_spread and actor_move < max_move else 0
            stop = calm_rounds >= patience
        if (t + 1) % log_interval == 0 or t == n_rounds - 1 or stop:
            history.append(snapshot())
            if logged_rounds is not None:
                logged_rounds.append(t + 1)
        if stop:
            break

    return history
