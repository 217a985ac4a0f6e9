"""Policy-driven incremental generation: masking, rewards, REINFORCE."""

import contextlib
import hashlib
import itertools
import math

import numpy as np
import pytest

import rnndsl.engine as en
from rnndsl import randgen, rlgen
from rnndsl.dsl import (
    Architecture,
    OpKind,
    analyze,
    builtin,
    canonicalize,
    from_preorder,
    parse,
    render,
    render_node,
    tree_height,
)
from rnndsl.randgen import GenConfig
from rnndsl.rlgen import (
    Memo,
    PartialArch,
    Policy,
    RLConfig,
    RewardConfig,
    generate_episode,
    measure_satisfaction,
    pretrain_priors,
    prior_depth,
    prior_satisfaction,
    reinforce_update,
    reward,
    sample_architecture,
)
from sampling import reference_draw


def tiny_policy(**overrides):
    base = dict(width=8, seed=0)
    base.update(overrides)
    return Policy(RLConfig(**base))


def encoding(pol, p):
    """The partial tree's encoding, h [1, w] of its root's last step."""
    memo = Memo()
    return memo.hc[pol.encode_partial(p, memo)][:, :pol.cfg.width]


def rows(ep):
    """The episode's head steps in its memo: per action, the chosen
    log-probability and the entropy."""
    steps = [ep.memo.head[i] for i in ep.rows]
    return np.array([(s[-2][0, s[3]], s[-1]) for s in steps])


def walk_encode(pol, p, memo):
    """The partial tree's encoding by a walk of the whole tree, as the
    rollout made it before it kept the open path: the oracle of
    `Policy.encode_partial`. Its encoder step is `lstm_fwd` of the stored
    states, with no kept product."""
    w = pol.cfg.width
    W, U, b = (pol.enc[k].data for k in "WUb")

    def memo_step(key, src, prev):
        x = memo.hc[src][:, :w] if src >= 0 else pol.tok_emb.data[[-1 - src]]
        out, saved = en.lstm_fwd(x, np.zeros((1, 2 * w)) if prev < 0 else memo.hc[prev], W, U, b)
        step = memo.keys[key] = len(memo.hc)
        memo.hc.append(out)
        if en.grad_enabled():
            levels = memo.levels
            memo.enc.append((src, prev, *saved))
            levels.append(1 + max(levels[src] if src >= 0 else -1,
                                  levels[prev] if prev >= 0 else -1))
        return step

    def node_state(kinds):
        # the last step of the node whose preorder starts at the next kind
        token, arity = pol._token_input[next(kinds)]
        step = memo.keys.get(token)
        if step is None:
            step = memo_step(token, token, -1)
        for _ in range(arity):
            kid = node_state(kinds)
            known = memo.keys.get((step, kid))
            step = memo_step((step, kid), kid, step) if known is None else known
        return step

    return node_state(itertools.chain(p.actions, [rlgen.TARGET_TOKEN],
                                      itertools.repeat(rlgen.EMPTY_TOKEN)))


class TestMasking:
    def test_root_slot_excludes_sources(self):
        pol = tiny_policy()
        p = PartialArch()
        mask, _ = pol.legal_actions(p)
        for a, ok in zip(pol.actions, mask):
            assert ok == (not a.is_source)

    def test_max_depth_forces_sources(self):
        pol = tiny_policy(max_depth=2)
        p = PartialArch()
        p.fill(OpKind.ADD)
        p.fill(OpKind.TANH)
        assert p.target_depth == 2
        mask, _ = pol.legal_actions(p)
        for a, ok in zip(pol.actions, mask):
            assert ok == a.is_source

    def test_max_nodes_forces_sources(self):
        pol = tiny_policy(max_nodes=1)
        p = PartialArch()
        p.fill(OpKind.ADD)
        mask, _ = pol.legal_actions(p)
        for a, ok in zip(pol.actions, mask):
            assert ok == a.is_source

    def test_mask_matches_tree_walk(self):
        # the old mask: count operators and find the target's depth by
        # walking the partial tree, here rebuilt from its preorder actions
        def walked(pol, p):
            kinds = iter(p.actions)

            def target_depth(depth):
                kind = next(kinds, None)
                if kind is None:
                    return depth  # the first open slot
                for _ in range(kind.arity):
                    found = target_depth(depth + 1)
                    if found is not None:
                        return found
                return None

            depth = target_depth(0)
            n = sum(not a.is_source for a in p.actions)
            force_source = depth >= pol.cfg.max_depth or n >= pol.cfg.max_nodes
            return np.array([
                depth > 0 if a.is_source else not force_source
                for a in pol.actions
            ])

        rng = np.random.default_rng(13)
        limits = [(11, 21), (3, 4), (2, 21), (11, 2), (1, 1)]
        at_limit = 0
        for i in range(200):
            max_depth, max_nodes = limits[i % len(limits)]
            pol = tiny_policy(max_depth=max_depth, max_nodes=max_nodes)
            p = PartialArch()
            while not p.complete:
                mask, _ = pol.legal_actions(p)
                assert np.array_equal(mask, walked(pol, p))
                operators = [ok for a, ok in zip(pol.actions, mask) if not a.is_source]
                at_limit += p.target_depth > 0 and not any(operators)
                p.fill(pol.actions[rng.choice(np.flatnonzero(mask))])
        assert at_limit > 100

    def test_cm1_absent_when_disabled(self):
        pol = tiny_policy(allow_cm1=False)
        assert OpKind.CM1 not in pol.actions

    def test_probabilities_normalized_and_masked(self):
        pol = tiny_policy()
        p = PartialArch()
        logp, mask, _ = pol.action_logprobs(p, pol.head_start()[0], Memo())
        probs = np.exp(logp[0])
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs[~mask] == 0.0)  # exp(-1e9) underflows exactly


class TestDraw:
    def test_draw_matches_generator_choice(self):
        """On 10,000 masked distributions made as the policy makes them,
        `draw_index` picks what `Generator.choice` picks and leaves the
        generator where choice leaves it."""
        pol = tiny_policy()
        masks = [mask for mask, _ in pol._legal.values() if mask.any()]
        make, ours, theirs = (np.random.default_rng(s) for s in (19, 20, 20))
        zeros = 0
        for i in range(10000):
            mask = masks[i % len(masks)]
            scores = make.standard_normal(len(mask)) * make.choice([0.1, 1.0, 10.0])
            scores = np.where(mask, scores, scores - 1e9)
            z = scores - scores.max()
            probs = np.exp(z - np.log(np.exp(z).sum()))
            zeros += not probs.all()
            assert rlgen.draw_index(probs, ours) == theirs.choice(len(probs),
                                                                  p=probs / probs.sum())
            assert ours.random() == theirs.random()
        assert zeros > 5000

    def test_nan_parameters_raise(self):
        pol = tiny_policy(epsilon=0.0)
        pol.lin2_w.data[...] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            generate_episode(pol, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rlgen.draw_index(np.array([np.nan, 0.5, 0.5]), np.random.default_rng(0))


class TestInit:
    @pytest.mark.parametrize("cfg,digest", [
        (RLConfig(width=8, seed=0),
         "48d169b2b4552e92c502ca442eeb7a42739981f0bd672448b79e47b85e6c6e2e"),
        (RLConfig(width=6, seed=3, extended_dsl=True, allow_cm1=False),
         "11d85ecff5be5281ef9766dd7114f5bc9c34d7785e219817d1a1033c2a460dc4"),
    ], ids=["width8", "width6-extended"])
    def test_fresh_parameters_pinned(self, cfg, digest):
        """A fresh policy's parameters, in ``params`` order, are pinned:
        the token table's rows, in token order, come first and draw the
        stream the 20 one-row embeddings it replaced drew."""
        pol = Policy(cfg)
        assert len(pol.params) == 11 and pol.params[0] is pol.tok_emb
        assert pol.tok_emb.data.shape == (len(pol.tokens), cfg.width) == (20, cfg.width)
        assert hashlib.sha256(b"".join(p.data.tobytes() for p in pol.params)).hexdigest() \
            == digest


class TestEncoding:
    def test_target_position_changes_encoding(self):
        pol = tiny_policy()
        a = PartialArch()
        a.fill(OpKind.ADD)  # slots: left(target), right
        b = PartialArch()
        b.fill(OpKind.ADD)
        b.fill(OpKind.X)  # now right slot is the target
        ea = encoding(pol, a)
        eb = encoding(pol, b)
        assert np.abs(ea - eb).max() > 1e-9

    def test_episode_memo_matches_fresh_memo(self):
        pol = tiny_policy()
        rng = np.random.default_rng(3)
        ep = generate_episode(pol, rng)  # one memo for the whole episode
        # replay the same action sequence with a fresh memo at every step
        p = PartialArch()
        head = pol.head_start()[0]
        for act, logp in zip(ep.actions, rows(ep)[:, 0]):
            fresh, _, step = pol.action_logprobs(p, head, Memo())
            head = step[-1]
            idx = pol.actions.index(act)
            assert fresh[0, idx] == logp
            p.fill(act)

    def test_shared_memo_encodes_bit_for_bit(self, monkeypatch):
        pol = tiny_policy()
        encode = pol.encode_partial
        steps = 0

        def checked(p, memo):
            nonlocal steps
            got = encode(p, memo)
            fresh = Memo()
            assert np.array_equal(memo.hc[got], fresh.hc[encode(p, fresh)])
            steps += 1
            return got

        monkeypatch.setattr(pol, "encode_partial", checked)
        memo = Memo()
        rng = np.random.default_rng(14)
        for _ in range(50):
            generate_episode(pol, rng, epsilon=0.3, memo=memo)
        assert steps > 300


    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    def test_open_path_matches_tree_walk(self, monkeypatch, grad):
        """Rollouts through the open path and through the walk of the whole
        tree, on memos shared by windows of episodes and forced replays,
        make the same encoder steps in the same order, bit for bit."""

        def roll(oracle):
            pol = tiny_policy()
            if oracle:
                monkeypatch.setattr(pol, "encode_partial",
                                    lambda p, memo: walk_encode(pol, p, memo))
            rng = np.random.default_rng(18)
            actions, memos = [], []
            with contextlib.nullcontext() if grad else en.no_grad():
                for _ in range(6):
                    memos.append(Memo())
                    for _ in range(10):
                        actions.append(generate_episode(pol, rng, epsilon=0.3,
                                                        memo=memos[-1]).actions)
                    for acts in actions[-9::4]:
                        generate_episode(pol, rng, forced_actions=acts, memo=memos[-1])
            return actions, memos

        actions, memos = roll(oracle=False)
        oracle_actions, oracle_memos = roll(oracle=True)
        assert actions == oracle_actions and len(actions) == 60
        for memo, oracle in zip(memos, oracle_memos):
            assert list(memo.keys.items()) == list(oracle.keys.items())
            assert np.concatenate(memo.hc).tobytes() == np.concatenate(oracle.hc).tobytes()
            assert [e[:2] for e in memo.enc] == [e[:2] for e in oracle.enc]
            for e, o in zip(memo.enc, oracle.enc):
                assert all(np.array_equal(a, b) for a, b in zip(e[2:], o[2:]))
            assert memo.levels == oracle.levels
            assert bool(memo.enc) == grad
        assert sum(len(m.hc) for m in memos) > 300


class TestReward:
    CFG = RewardConfig(rescale_gain=1.0, rescale_bias=0.0)

    def test_zero_point_is_tiny(self):
        # R(140) = 0 + 4^-50
        assert reward(self.CFG, 140.0) < 1e-30

    def test_exponential_knee(self):
        loss = 140.0 - 50.0 / 0.3815
        expect = 0.2 * (50.0 / 0.3815) + 1.0
        assert abs(reward(self.CFG, loss) - expect) < 1e-9

    def test_monotone_decreasing_in_loss(self):
        grid = np.linspace(0.0, 140.0, 1000)
        vals = [reward(self.CFG, float(l)) for l in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_failures_get_flat_reward(self):
        assert reward(self.CFG, 1.0, status="diverged") == 0.0
        assert reward(self.CFG, None) == 0.0
        assert reward(self.CFG, float("nan")) == 0.0

    def test_default_rescale_applied(self):
        cfg = RewardConfig()
        # loss l maps to 111*l - 2.2 before the formula
        l = 1.0
        assert reward(cfg, l) == pytest.approx(
            reward(self.CFG, cfg.rescale_gain * l + cfg.rescale_bias)
        )


# the oracle of `prior_satisfaction`: the six priors as they were, one
# predicate and one walk each
def oracle_depth(arch, lo=3, hi=11):
    root = arch.root
    depth = tree_height(root) + 1 if not root.op.is_source else 0
    return lo <= depth <= hi


def oracle_components(arch):
    ops = [n.op for n in arch.root.walk()]
    return (
        OpKind.X in ops
        and OpKind.HM1 in ops
        and OpKind.MM in ops
        and any(o.is_activation for o in ops)
    )


def oracle_no_repeated_child(arch):
    return all(
        c.op is not n.op
        for n in arch.root.walk()
        if not n.op.is_source
        for c in n.children
    )


def oracle_no_stacked_activation(arch):
    return all(
        not (n.op.is_activation and c.op.is_activation)
        for n in arch.root.walk()
        for c in n.children
    )


def oracle_gate_inputs_distinct(arch):
    for n in arch.root.walk():
        if n.op is OpKind.GATE3:
            if len({render_node(c) for c in n.children}) != 3:
                return False
    return True


def oracle_mm_on_source(arch):
    return all(
        n.children[0].op.is_source
        for n in arch.root.walk()
        if n.op is OpKind.MM
    )


ORACLE_PRIORS = (
    oracle_depth,
    oracle_components,
    oracle_no_repeated_child,
    oracle_no_stacked_activation,
    oracle_gate_inputs_distinct,
    oracle_mm_on_source,
)
DEPTH, COMPONENTS, NO_REPEAT, NO_STACK, GATE_DISTINCT, MM_SOURCE = range(6)


def prior(arch, which):
    return prior_satisfaction(arch)[which]


class TestPriors:
    def test_depth_counts_operator_nodes(self):
        assert not prior_depth(parse("Tanh(Add(x_t,h_tm1))"))  # depth 2
        assert prior_depth(parse("Tanh(Add(MM(x_t),h_tm1))"))  # depth 3
        assert not prior(parse("Tanh(Add(x_t,h_tm1))"), DEPTH)

    def test_components(self):
        assert prior(builtin("tanh_rnn"), COMPONENTS)
        assert not prior(parse("Tanh(MM(x_t))"), COMPONENTS)
        assert not prior(parse("Add(MM(x_t),MM(h_tm1))"), COMPONENTS)

    def test_no_repeated_child(self):
        assert not prior(parse("Tanh(Tanh(MM(x_t)))"), NO_REPEAT)
        assert not prior(parse("Add(Add(x_t,x_t),h_tm1)"), NO_REPEAT)
        assert prior(builtin("gru"), NO_REPEAT)

    def test_no_stacked_activation(self):
        assert not prior(parse("Tanh(Sigmoid(MM(x_t)))"), NO_STACK)
        assert prior(builtin("gru"), NO_STACK)

    def test_gate_inputs_distinct(self):
        bad = parse("Gate3(MM(x_t),MM(x_t),Sigmoid(MM(h_tm1)))")
        assert not prior(bad, GATE_DISTINCT)
        assert not prior(parse("Gate3(x_t,h_tm1,x_t)"), GATE_DISTINCT)
        assert prior(parse("Gate3(MM(x_t),MM(h_tm1),Sigmoid(MM(x_t)))"), GATE_DISTINCT)
        assert prior(builtin("gru"), GATE_DISTINCT)

    def test_mm_on_source(self):
        assert not prior(parse("Tanh(MM(Add(x_t,h_tm1)))"), MM_SOURCE)
        assert prior(builtin("gru"), MM_SOURCE)
        assert not prior(builtin("bc3"), MM_SOURCE)  # MM over products

    def test_satisfaction_vector_length(self):
        assert len(prior_satisfaction(builtin("gru"))) == 6

    def test_one_walk_matches_oracle(self):
        """Raw draws of the core and extended DSL at default and tight
        bounds, unfiltered, and policy samples at epsilon 0.5: every prior
        agrees with its oracle, and each is both true and false."""
        tight = {"max_nodes": 6, "max_height": 3}
        trees = []
        for fields, seed in [({}, 21), (tight, 22), ({"extended_dsl": True}, 23),
                             ({"extended_dsl": True, **tight}, 24)]:
            plan = randgen._draw_plan(GenConfig(**fields))
            rng = np.random.default_rng(seed)
            trees += [Architecture(from_preorder(reference_draw(plan, rng)[0]))
                      for _ in range(4750)]
        pol, rng = tiny_policy(), np.random.default_rng(25)
        trees += [sample_architecture(pol, rng, epsilon=0.5) for _ in range(1000)]
        assert len(trees) >= 20000
        seen = set()
        for arch in trees:
            got = prior_satisfaction(arch)
            assert got == [p(arch) for p in ORACLE_PRIORS], render(arch)
            seen.update(enumerate(got))
        assert seen == set(itertools.product(range(6), (False, True)))


class TestEpisodes:
    def test_episode_trees_are_valid(self):
        pol = tiny_policy()
        rng = np.random.default_rng(1)
        for _ in range(50):
            ep = generate_episode(pol, rng)
            arch = ep.arch
            assert not arch.root.op.is_source
            assert analyze(arch).height + 1 <= pol.cfg.max_depth + 1
            # round-trips through the textual form
            assert render(canonicalize(parse(render(arch)))) == render(
                canonicalize(arch)
            )

    def test_action_count_matches_tree(self):
        pol = tiny_policy()
        ep = generate_episode(pol, np.random.default_rng(2))
        total_nodes = sum(1 for _ in ep.arch.root.walk())
        assert len(ep.actions) == total_nodes
        assert len(ep.rows) == total_nodes
        assert rows(ep).shape == (total_nodes, 2)

    def test_rollout_builds_no_tensor(self, monkeypatch):
        """Under gradients a rollout only records its steps in the memo;
        the tape node is built when the update asks for it."""
        pol = tiny_policy()
        made = []
        init = en.Tensor.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(en.Tensor, "__init__", counted)
        memo = Memo()
        eps = [generate_episode(pol, np.random.default_rng(s), memo=memo) for s in range(3)]
        assert en.grad_enabled() and made == []
        assert [len(e.rows) for e in eps] == [len(e.actions) for e in eps]
        eps[0].logp_sum()
        assert len(made) == 1  # the loss node over the episode's rows

    def test_forced_replay_rescores_identically(self):
        pol = tiny_policy()
        ep = generate_episode(pol, np.random.default_rng(4))
        replay = generate_episode(
            pol, np.random.default_rng(99), forced_actions=ep.actions
        )
        assert replay.actions == ep.actions
        assert abs(
            replay.logp_sum().data.item() - ep.logp_sum().data.item()
        ) < 1e-9

    def test_forced_illegal_action_rejected(self):
        pol = tiny_policy()
        with pytest.raises(ValueError):
            generate_episode(
                pol, np.random.default_rng(5), forced_actions=[OpKind.X]
            )

    def test_epsilon_one_explores_all_operators(self):
        pol = tiny_policy()
        rng = np.random.default_rng(6)
        roots = {
            sample_architecture(pol, rng, epsilon=1.0).root.op
            for _ in range(300)
        }
        operators = {a for a in pol.actions if not a.is_source}
        assert roots == operators


    def test_sampled_architecture_builds_no_tape(self, monkeypatch):
        pol = tiny_policy()
        want = generate_episode(pol, np.random.default_rng(7), epsilon=0.0).arch
        episodes = []
        rollout = rlgen.generate_episode

        def kept(*args, **kwargs):
            episodes.append(rollout(*args, **kwargs))
            return episodes[-1]

        monkeypatch.setattr(rlgen, "generate_episode", kept)
        assert sample_architecture(pol, np.random.default_rng(7)) == want
        (ep,) = episodes
        assert not ep.rows and ep.memo.head == [] and ep.memo.enc == []
        with pytest.raises(ValueError, match="without gradients"):
            ep.logp_sum()
        assert en.grad_enabled()


class TestReinforce:
    def test_policy_loss_gradient(self):
        pol = tiny_policy(width=4)
        actions = parse_actions(pol)

        def loss():
            ep = generate_episode(
                pol, np.random.default_rng(0), forced_actions=actions
            )
            return en.mul(en.tsum(ep.logp_sum()), en.Tensor(-1.0))

        assert en.gradient_check(loss, pol.params) < 1e-4

    def test_shared_memo_batch_gradients(self):
        pol = tiny_policy(width=4)

        def grads(shared):
            memo = Memo()
            rng = np.random.default_rng(15)
            eps = [
                generate_episode(pol, rng, epsilon=0.2, memo=memo if shared else None)
                for _ in range(6)
            ]
            total = eps[0].logp_sum()
            for i, e in enumerate(eps[1:]):
                total = en.add(total, en.mul(e.logp_sum(), en.Tensor(i - 2.0)))
            for p in pol.params:
                p.zero_grad()
            en.tsum(total).backward()
            return [e.actions for e in eps], [
                np.zeros_like(p.data) if p.grad is None else p.grad
                for p in pol.params
            ]

        acts, want = grads(shared=False)
        shared_acts, got = grads(shared=True)
        assert shared_acts == acts
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12

        def loss():
            memo = Memo()
            total = None
            for actions in (parse_actions(pol), acts[0]):
                ep = generate_episode(
                    pol, np.random.default_rng(0), forced_actions=actions, memo=memo
                )
                term = ep.logp_sum()
                total = term if total is None else en.add(total, term)
            return en.mul(en.tsum(total), en.Tensor(-1.0))

        assert en.gradient_check(loss, pol.params) < 1e-4

    def test_positive_advantage_raises_logp(self):
        pol = tiny_policy(normalize_advantage=False, epsilon=0.0)
        pol.baseline = 0.0  # advantage = reward
        ep = generate_episode(pol, np.random.default_rng(7))
        before = ep.logp_sum().data.item()
        ep.reward = 1.0
        opt = en.Optimizer(
            pol.params, en.OptimizerConfig(kind="sgd", learning_rate=0.1)
        )
        assert reinforce_update(pol, [ep], opt)
        after = generate_episode(
            pol, np.random.default_rng(0), forced_actions=ep.actions
        ).logp_sum().data.item()
        assert after > before

    def test_negative_advantage_lowers_logp(self):
        pol = tiny_policy(normalize_advantage=False, epsilon=0.0)
        pol.baseline = 0.0  # advantage = reward
        ep = generate_episode(pol, np.random.default_rng(8))
        before = ep.logp_sum().data.item()
        ep.reward = -1.0
        opt = en.Optimizer(
            pol.params, en.OptimizerConfig(kind="sgd", learning_rate=0.1)
        )
        reinforce_update(pol, [ep], opt)
        after = generate_episode(
            pol, np.random.default_rng(0), forced_actions=ep.actions
        ).logp_sum().data.item()
        assert after < before

    def test_normalized_advantages_zero_mean(self):
        pol = tiny_policy(normalize_advantage=True, epsilon=0.0)
        rng, memo = np.random.default_rng(9), Memo()
        eps = [generate_episode(pol, rng, memo=memo) for _ in range(6)]
        for i, e in enumerate(eps):
            e.reward = float(i)
        opt = en.Optimizer(
            pol.params, en.OptimizerConfig(kind="sgd", learning_rate=1e-12)
        )
        assert reinforce_update(pol, eps, opt)  # runs without numeric issues

    def test_entropy_bonus_flattens_distribution(self):
        pol = tiny_policy(width=4, entropy_weight=5.0, epsilon=0.0)
        rng = np.random.default_rng(10)
        opt = en.Optimizer(
            pol.params, en.OptimizerConfig(kind="sgd", learning_rate=0.05)
        )
        def root_entropy():
            logp, mask, _ = pol.action_logprobs(
                PartialArch(), pol.head_start()[0], Memo()
            )
            p = np.exp(logp[0][mask])
            return -(p * np.log(p)).sum()

        before = root_entropy()
        for _ in range(20):
            memo = Memo()
            eps = [generate_episode(pol, rng, memo=memo) for _ in range(4)]
            for e in eps:
                e.reward = 0.0  # pure entropy ascent
            reinforce_update(pol, eps, opt)
        assert root_entropy() > before - 1e-6

    def test_refuses_an_episode_without_gradients(self):
        pol = tiny_policy()
        with en.no_grad():
            bare = generate_episode(pol, np.random.default_rng(1))
        with pytest.raises(ValueError, match="without gradients"):
            rlgen.reinforce_loss(pol, [bare], [1.0], 0.0)

    def test_refuses_episodes_of_two_windows(self):
        pol = tiny_policy()
        eps = [generate_episode(pol, np.random.default_rng(s)) for s in range(2)]
        with pytest.raises(ValueError, match="share one update window"):
            rlgen.reinforce_loss(pol, eps, [1.0, -1.0], 0.0)


def lstm_per_op(x, hc, gates):
    """The packed LSTM step as one Tensor op per gate."""
    w = hc.data.shape[-1] // 2

    def block(t, k):
        return en.take(t, (..., slice(k * w, (k + 1) * w)))

    z = en.add(en.add(en.linear(x, gates["W"]), en.linear(block(hc, 0), gates["U"])),
               gates["b"])
    i, f, o = (en.sigmoid(block(z, k)) for k in range(3))
    c = en.add(en.mul(f, block(hc, 1)), en.mul(i, en.tanh(block(z, 3))))
    return en.concat([en.mul(o, en.tanh(c)), c])


def log_softmax_per_op(x):
    z = x.data - x.data.max(axis=-1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    s = np.exp(out)
    return en.Tensor(out, (x,), lambda g: (g - s * g.sum(axis=-1, keepdims=True),))


def episode_per_op(pol, actions, memo):
    """Log-probability and entropy Tensors of a forced episode on the
    policy's per-op graph, with the encoder memoized by value in the dict
    ``memo``: the oracle of the window's level-batched reverse pass."""
    w = pol.cfg.width

    def state(kinds):
        # the node at the next of the partial tree's preorder kinds
        kind = next(kinds)
        token = kind.value if isinstance(kind, OpKind) else kind
        if token not in memo:
            j = pol.tokens.index(token)
            emb = en.take(pol.tok_emb, (slice(j, j + 1),))
            hc = lstm_per_op(emb, en.Tensor(np.zeros((1, 2 * w))), pol.enc)
            memo[token] = (len(memo), hc)
        key, hc = memo[token]
        for _ in range(kind.arity if isinstance(kind, OpKind) else 0):
            child_key, child_hc = state(kinds)
            if (key, child_key) not in memo:
                h = en.take(child_hc, (..., slice(0, w)))
                memo[(key, child_key)] = (len(memo), lstm_per_op(h, hc, pol.enc))
            key, hc = memo[(key, child_key)]
        return key, hc

    p = PartialArch()
    head = en.Tensor(np.zeros((1, 2 * w)))
    logps, entropies = [], []
    for act in actions:
        # the filled nodes lead the partial tree's preorder; then the open
        # slots, the first of them the target
        kinds = itertools.chain(p.actions, [rlgen.TARGET_TOKEN],
                                itertools.repeat(rlgen.EMPTY_TOKEN))
        enc = en.take(state(kinds)[1], (..., slice(0, w)))
        head = lstm_per_op(en.relu(en.linear(enc, pol.lin1_w, pol.lin1_b)), head, pol.head)
        scores = en.linear(en.take(head, (..., slice(0, w))), pol.lin2_w, pol.lin2_b)
        mask, _ = pol.legal_actions(p)
        logp = log_softmax_per_op(en.add(scores, en.Tensor(np.where(mask, 0.0, -1e9)[None, :])))
        idx = pol.actions.index(act)
        logps.append(en.take(logp, (..., slice(idx, idx + 1))))
        entropies.append(en.mul(en.tsum(en.mul(en.exp(logp), logp)), en.Tensor(-1.0)))
        p.fill(act)
    return logps, entropies


def chain_sum(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = en.add(total, t)
    return total


def chain_loss(sums, advs, beta):
    """The REINFORCE loss over (log-probability sum, entropy sum) pairs as a
    chain of scalar nodes per episode: the oracle of `reinforce_loss`."""
    total = None
    for (logp, ent), adv in zip(sums, advs):
        term = en.mul(logp, en.Tensor(-adv))
        if beta > 0:
            term = en.sub(term, en.mul(ent, en.Tensor(beta)))
        total = term if total is None else en.add(total, term)
    return en.mul(en.tsum(total), en.Tensor(1.0 / len(sums)))


def param_grads(pol, loss):
    """The policy parameters' gradients of ``loss``, zeros where none."""
    for p in pol.params:
        p.zero_grad()
    loss.backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in pol.params]
    for p in pol.params:
        p.zero_grad()
    return grads


class TestWindowBackward:
    """The window node's reverse pass gives the per-op graph's gradients."""

    def roll(self, pol, window):
        """The episodes of one window, given by (rng seed or forced
        actions), and their (log-probability sum, entropy sum) on the per-op
        graph; rollouts and the oracle share a memo alike."""
        memo, oracle_memo = Memo(), {}
        rolled, oracle = [], []
        for spec in window:
            forced = spec if isinstance(spec, list) else None
            rng = np.random.default_rng(0 if forced else spec)
            ep = generate_episode(pol, rng, epsilon=0.1, forced_actions=forced, memo=memo)
            logps, entropies = episode_per_op(pol, ep.actions, oracle_memo)
            assert rows(ep).tolist() == [
                [l.data.item(), e.data.item()] for l, e in zip(logps, entropies)
            ]
            rolled.append(ep)
            oracle.append((chain_sum(logps), chain_sum(entropies)))
        return rolled, oracle

    def check(self, pol, got, want):
        got, want = param_grads(pol, got), param_grads(pol, want)
        # every parameter, the token table too, is reached
        reached = {p.name for p, w in zip(pol.params, want) if np.abs(w).max() > 1e-6}
        assert reached == {p.name for p in pol.params}
        for p, g, w in zip(pol.params, got, want):
            assert np.abs(g - w).max() <= 1e-12, p.name

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_shared_memo_window_with_replays(self, beta):
        pol = tiny_policy(width=6)
        replays = [generate_episode(pol, np.random.default_rng(s)).actions for s in (40, 41)]
        rolled, oracle = self.roll(pol, [30, 31, 32, 33, 34, 35, 36, 37, 38, 39] + replays)
        advs = np.linspace(-1.0, 1.5, len(rolled))
        self.check(pol, rlgen.reinforce_loss(pol, rolled, advs, beta),
                   chain_loss(oracle, advs, beta))

    def test_separate_memos(self):
        """Window nodes of several memos in one backward pass sum: the
        per-window losses, each weighted by its share of the episodes."""
        pol = tiny_policy(width=6)
        windows = [self.roll(pol, w) for w in ([50], [51], [52, 53], [54])]
        advs = np.linspace(-1.0, 1.5, 5)
        total, first = None, 0
        for rolled, _ in windows:
            share = en.Tensor(len(rolled) / len(advs))
            term = en.mul(rlgen.reinforce_loss(pol, rolled, advs[first:first + len(rolled)],
                                               0.0), share)
            total = term if total is None else en.add(total, term)
            first += len(rolled)
        oracle = [sums for _, o in windows for sums in o]
        self.check(pol, total, chain_loss(oracle, advs, 0.0))


class TestRLSearchWindows:
    def test_carried_failure_is_scored_at_current_parameters(self, monkeypatch):
        """A failure deferred past an update enters the next update with
        the gradient of its log-probability at the parameters of that
        update, as the per-op graph gives it."""
        from rnndsl import search

        # two failures, then goods: the first update takes three goods and
        # one failure and defers the other failure to the second update
        script = iter([(-1.0, False), (-0.5, False), (1.0, True), (2.0, True),
                       (1.5, True), (0.5, True), (1.2, True), (0.8, True)])
        monkeypatch.setattr(search, "_episode_result", lambda *args: (*next(script), 1))
        update, step = rlgen.reinforce_update, en.Optimizer.step
        updates, grads = [], []

        def spy(policy, batch, opt):
            updates.append(([p.data.copy() for p in policy.params], policy.baseline,
                            [(list(e.actions), e.reward) for e in batch]))
            return update(policy, batch, opt)

        def kept_step(opt):
            grads.append([np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                          for p in opt.params])
            return step(opt)

        monkeypatch.setattr(rlgen, "reinforce_update", spy)
        monkeypatch.setattr(en.Optimizer, "step", kept_step)
        pol = tiny_policy(width=6)
        cfg = search.SearchConfig(mode="rl", max_evaluations=8, seed_baselines=())
        result = search.run_rl_search(cfg, task=None, policy=pol, train_cfg=None)
        assert result.batches_applied == 2
        (_, _, first), (params, baseline, batch) = updates
        assert batch[-1][1] == -0.5 and batch[-1] not in first  # the carried failure
        for p, data in zip(pol.params, params):
            p.data[...] = data
        sums = []
        for actions, _ in batch:
            logps, entropies = episode_per_op(pol, actions, {})
            sums.append((chain_sum(logps), chain_sum(entropies)))
        # the second update's advantage: reward minus the running baseline
        want = param_grads(pol, chain_loss(sums, [r - baseline for _, r in batch], 0.0))
        for p, g, w in zip(pol.params, grads[1], want):
            assert np.abs(g - w).max() <= 1e-12, p.name


def parse_actions(pol):
    """A short legal action sequence: Tanh(Add(MM(x_t),h_tm1))."""
    return [
        OpKind.TANH,
        OpKind.ADD,
        OpKind.MM,
        OpKind.X,
        OpKind.HM1,
    ]


class TestPretrain:
    def test_smoke_and_result_shape(self):
        pol = tiny_policy(width=8, learning_rate=0.01)
        res = pretrain_priors(pol, budget=40, rng=np.random.default_rng(11))
        assert res.episodes_run == 40
        assert 0.0 <= res.baseline_rate <= 1.0
        assert 0.0 <= res.final_rate <= 1.0
        assert len(res.rate_history) == 40 // rlgen.PRETRAIN_BATCH

    def test_shared_memo_matches_per_episode_memo(self, monkeypatch):
        """Pre-training on one memo per update window takes the actions,
        rates and parameters of the oracle: rollouts on a memo per episode
        and each update's loss on the per-op graph."""
        rollout = rlgen.generate_episode
        memo_step = rlgen.Policy._memo_step

        def per_op_loss(policy, episodes, advs, beta):
            sums = []
            for e in episodes:
                logps, entropies = episode_per_op(policy, e.actions, {})
                sums.append((chain_sum(logps), chain_sum(entropies)))
            return chain_loss(sums, advs, beta)

        def run(per_episode):
            actions, calls = [], [0]

            def episode(*args, **kwargs):
                if per_episode:
                    kwargs.pop("memo", None)
                ep = rollout(*args, **kwargs)
                actions.append(ep.actions)
                return ep

            def counted(*args):
                calls[0] += 1
                return memo_step(*args)

            monkeypatch.setattr(rlgen, "generate_episode", episode)
            # every encoder step, and only those, goes through the memo step
            monkeypatch.setattr(rlgen.Policy, "_memo_step", counted)
            if per_episode:
                monkeypatch.setattr(rlgen, "reinforce_loss", per_op_loss)
            pol = tiny_policy(learning_rate=0.01, entropy_weight=0.03,
                              normalize_advantage=True, epsilon=0.0)
            res = pretrain_priors(pol, budget=40, rng=np.random.default_rng(16))
            return actions, calls[0], res, [p.data.copy() for p in pol.params]

        acts, calls, res, params = run(per_episode=False)
        oracle_acts, oracle_calls, oracle_res, oracle_params = run(per_episode=True)
        assert acts == oracle_acts
        assert res.rate_history == oracle_res.rate_history
        # the per-episode memo already shares within an episode; the 200
        # untrained measuring episodes, most of budget 40, share little more
        assert 0 < calls <= 0.8 * oracle_calls
        for p, q in zip(params, oracle_params):
            assert np.abs(p - q).max() <= 1e-12

    def test_pinned_episodes_and_parameters(self, monkeypatch):
        """The rollout's draws and updates are pinned: a change to the
        encoder, the head or the memo must leave every episode in place.
        The parameter hash pins the summation order of the window's
        level-batched reverse pass (`Policy._window_backward`); the per-op
        tape it replaced summed the same terms in another order."""
        rollout = rlgen.generate_episode
        rendered = []

        def episode(*args, **kwargs):
            ep = rollout(*args, **kwargs)
            rendered.append(render(ep.arch))
            return ep

        monkeypatch.setattr(rlgen, "generate_episode", episode)
        pol = tiny_policy(learning_rate=0.01, entropy_weight=0.03,
                          normalize_advantage=True, epsilon=0.0)
        pretrain_priors(pol, budget=40, rng=np.random.default_rng(16))
        params = hashlib.sha256()
        for p in pol.params:
            params.update(p.data.tobytes())
        assert len(rendered) == 240  # 200 measuring episodes, 40 training
        assert hashlib.sha256("\n".join(rendered).encode()).hexdigest() == (
            "cf3cb6540980614893bade27ee79034c7647cf9c06eb8573a2e1879ac6519c6e"
        )
        assert params.hexdigest() == (
            "483f2877cd4c312e9ada2629e55ea243881a00456907a0da07f3df0a35ee0752"
        )

    def test_measure_satisfaction_range(self):
        pol = tiny_policy()
        rate = measure_satisfaction(pol, np.random.default_rng(12), n=50)
        assert 0.0 <= rate <= 1.0
