"""Finite toy-environment tests: generation, exact values, backend modes."""

import hashlib
import itertools
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

from test_acceptance import _random_deeper_state
from rsp.core import ContractViolation, Step, apply_step, derive_seed, normalize_answer
from rsp.mcts import mc_rollout_estimate, sample_path
from rsp.policy import DETERMINISTIC_TEMPERATURE, ProposalRequest
from rsp.toyenv import (
    ActionKind,
    Mode,
    TableProblem,
    ToyAction,
    ToyBackend,
    corpus_to_records,
    generate_problem,
    problem_from_id,
    toy_corpus,
    toy_state_decoder,
    toy_true_value,
    _GAMMA,
    _splitmix_uniform,
)


def state_after(problem, labels):
    state = problem.root_state()
    for label in labels:
        action = next(
            a for a in problem.actions_at(tuple(labels[: labels.index(label)]))
            if a.label == label
        )
        state = apply_step(state, problem.step_for(action))
    return state


def walk(problem, labels, answer=False):
    """Apply op labels in order, optionally ending with the answer action."""
    state = problem.root_state()
    history: list[str] = []
    for label in labels:
        action = next(
            a for a in problem.actions_at(tuple(history)) if a.label == label
        )
        state = apply_step(state, problem.step_for(action), max_depth=64)
        history.append(label)
    if answer:
        action = next(
            a
            for a in problem.actions_at(tuple(history))
            if a.kind is ActionKind.ANSWER
        )
        state = apply_step(state, problem.step_for(action), max_depth=64)
    return state


def answer_action(problem, history):
    return next(
        a for a in problem.actions_at(history) if a.kind is ActionKind.ANSWER
    )


def _answer_table(probs_and_answers, gold="7"):
    actions = [
        ToyAction(
            label=f"a{i}",
            kind=ActionKind.ANSWER,
            prob=p,
            value_before=0,
            value_after=0,
            answer_text=text,
        )
        for i, (p, text) in enumerate(probs_and_answers)
    ]
    return TableProblem("tbl-1", gold, {(): actions})


def test_generation_is_deterministic():
    a, b = generate_problem(123), generate_problem(123)
    assert a.id == b.id == "toy-0000000123"
    assert a.question_text == b.question_text
    assert a.gold_answer == b.gold_answer
    assert a.root_ops == b.root_ops
    assert a.rest_ops == b.rest_ops
    assert a.greedy_trap == b.greedy_trap


def test_problem_rebuilds_from_its_id():
    original = generate_problem(77)
    rebuilt = problem_from_id(original.id)
    assert rebuilt.question_text == original.question_text
    assert rebuilt.gold_answer == original.gold_answer
    with pytest.raises(ContractViolation):
        problem_from_id("not-a-toy-id")


def test_corpus_is_deterministic_and_contains_a_greedy_trap():
    a = toy_corpus(30, seed=5)
    b = toy_corpus(30, seed=5)
    assert [p.id for p in a] == [p.id for p in b]
    assert len({p.id for p in a}) == 30
    assert any(p.greedy_trap for p in a)


def test_corpus_records_schema():
    records = corpus_to_records(toy_corpus(3, seed=1))
    assert len(records) == 3
    for record in records:
        assert set(record) == {"id", "question", "gold_answer"}
        assert record["question"].startswith("<question")


def test_action_probabilities_sum_to_one_everywhere():
    rng = random.Random(0)
    for _ in range(25):
        problem = generate_problem(rng.randrange(2**31))
        stack = [()]
        while stack:
            history = stack.pop()
            actions = problem.actions_at(history)
            assert math.isclose(sum(a.prob for a in actions), 1.0, abs_tol=1e-12)
            for action in actions:
                if action.kind is ActionKind.OP and len(history) < problem.horizon:
                    stack.append(history + (action.label,))


def _parsed_fields(step):
    return step.kind, step.text, step.answer, step.contains_code, step.code_output, step.code_errored


def test_step_text_codec_recovers_every_toy_step():
    # the codec rebuilds every step, its code flag, output and error flag are
    # the toy action's, and the reference server's decoder hands a backend
    # the same steps, generation log-probs aside
    corpus = toy_corpus(20, 0)
    decode = toy_state_decoder(ToyBackend.for_corpus(corpus))
    checked = 0
    for problem in corpus:
        stack = [((), problem.root_state())]
        while stack:
            history, state = stack.pop()
            for action in problem.actions_at(history):
                step = problem.step_for(action)
                parsed = Step(step.text, step.mean_log_prob)
                assert parsed == step
                op = action.kind is ActionKind.OP
                assert (parsed.contains_code, parsed.code_errored) == (op, action.errored)
                if op and not action.errored:
                    assert parsed.code_output == str(action.value_after)
                child = apply_step(state, step, problem.horizon + 1)
                decoded = decode(child.render()).steps
                assert list(map(_parsed_fields, decoded)) == list(map(_parsed_fields, child.steps))
                checked += 1
                if op:
                    stack.append((history + (action.label,), child))
    assert checked > 100


def test_golden_path_reaches_the_gold_answer():
    for seed in range(40):
        problem = generate_problem(seed)
        labels = [problem.golden_label] + [label for label, _, _ in problem.rest_ops]
        action = answer_action(problem, tuple(labels))
        assert action.answer_text == problem.gold_answer


def test_subtree_values_split_cleanly():
    # every opening move pins its whole subtree to exactly +1 or -1
    rng = random.Random(9)
    for _ in range(30):
        problem = generate_problem(rng.randrange(2**31))
        root_value = toy_true_value(problem)
        assert -1.0 < root_value < 1.0
        for label, _, _, _ in problem.root_ops:
            subtree = toy_true_value(problem, (label,))
            expected = 1.0 if label == problem.golden_label else -1.0
            assert subtree == expected


def test_root_value_matches_bellman_sum():
    rng = random.Random(11)
    for _ in range(20):
        problem = generate_problem(rng.randrange(2**31))
        total = sum(
            a.prob * toy_true_value(problem, (a.label,))
            for a in problem.actions_at(())
        )
        assert math.isclose(toy_true_value(problem), total, abs_tol=1e-12)


def test_greedy_trap_makes_the_wrong_opening_most_likely():
    found = 0
    for seed in range(200):
        problem = generate_problem(seed)
        best = max(problem.actions_at(()), key=lambda a: a.prob)
        if problem.greedy_trap:
            found += 1
            assert best.label != problem.golden_label
        else:
            assert best.label == problem.golden_label
    assert found > 0


def test_trap_subtrees_offer_an_early_answer():
    problem = generate_problem(3)
    trap = next(
        label for label, _, _, _ in problem.root_ops
        if label != problem.golden_label
    )
    trap_actions = problem.actions_at((trap,))
    assert any(a.kind is ActionKind.ANSWER for a in trap_actions)
    golden_actions = problem.actions_at((problem.golden_label,))
    assert all(a.kind is ActionKind.OP for a in golden_actions)


def test_fifty_fifty_answers_have_value_zero():
    problem = _answer_table([(0.5, "7"), (0.5, "8")])
    assert toy_true_value(problem) == 0.0


def test_three_of_four_correct_leaves_value_half():
    problem = _answer_table([(0.25, "7"), (0.25, "7"), (0.25, "7"), (0.25, "8")])
    assert toy_true_value(problem) == pytest.approx(0.5, abs=1e-12)


def test_uniform_actions_yield_uniform_priors():
    ops = [
        ToyAction(
            label=f"op{i}",
            kind=ActionKind.OP,
            prob=0.25,
            value_before=0,
            value_after=i,
        )
        for i in range(4)
    ]
    problem = TableProblem("tbl-1", "0", {(): ops})
    backend = ToyBackend.for_corpus([problem])
    proposals = backend.propose_steps(
        ProposalRequest(state=problem.root_state(), n_samples=4, temperature=1.0, seed=0)
    )
    assert len(proposals) == 4
    for proposal in proposals:
        assert proposal.step.prior == pytest.approx(0.25, abs=1e-9)


def test_sampling_caps_at_the_number_of_legal_actions():
    problem = generate_problem(5)
    backend = ToyBackend.for_corpus([problem])
    proposals = backend.propose_steps(
        ProposalRequest(state=problem.root_state(), n_samples=50, temperature=1.0, seed=0)
    )
    texts = [p.step.text for p in proposals]
    assert len(texts) == len(problem.root_ops)
    assert len(set(texts)) == len(texts)


def test_deterministic_temperature_ranks_by_probability():
    problem = generate_problem(5)
    backend = ToyBackend.for_corpus([problem])
    proposals = backend.propose_steps(
        ProposalRequest(
            state=problem.root_state(),
            n_samples=len(problem.root_ops),
            temperature=DETERMINISTIC_TEMPERATURE,
            seed=0,
        )
    )
    priors = [p.step.prior for p in proposals]
    assert priors == sorted(priors, reverse=True)


def test_same_seed_gives_identical_proposals():
    problem = generate_problem(8)
    backend = ToyBackend.for_corpus([problem])
    request = lambda s: ProposalRequest(  # noqa: E731
        state=problem.root_state(), n_samples=3, temperature=1.0, seed=s
    )
    first = [p.step.text for p in backend.propose_steps(request(4))]
    second = [p.step.text for p in backend.propose_steps(request(4))]
    assert first == second


def test_cold_backend_predicts_zero():
    problem = generate_problem(2)
    backend = ToyBackend.for_corpus([problem], mode=Mode.COLD)
    assert backend.predict_value(problem.root_state()).value == 0.0
    state = walk(problem, [problem.golden_label])
    assert backend.predict_value(state).value == 0.0


def test_oracle_backend_matches_exact_values():
    problem = generate_problem(2)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    assert backend.predict_value(problem.root_state()).value == pytest.approx(
        toy_true_value(problem), abs=1e-12
    )
    state = walk(problem, [problem.golden_label])
    assert backend.predict_value(state).value == 1.0


def test_answered_states_predict_exactly_plus_or_minus_one():
    problem = generate_problem(2)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    labels = [problem.golden_label] + [label for label, _, _ in problem.rest_ops]
    correct = walk(problem, labels, answer=True)
    assert backend.predict_value(correct).value == 1.0
    trap = next(
        label for label, _, _, _ in problem.root_ops
        if label != problem.golden_label
    )
    wrong = walk(problem, [trap], answer=True)
    assert backend.predict_value(wrong).value == -1.0
    assert backend.true_value(wrong) == -1.0


def test_propose_on_answered_state_is_rejected():
    problem = generate_problem(2)
    backend = ToyBackend.for_corpus([problem])
    trap = next(
        label for label, _, _, _ in problem.root_ops
        if label != problem.golden_label
    )
    answered = walk(problem, [trap], answer=True)
    with pytest.raises(ContractViolation):
        backend.propose_steps(
            ProposalRequest(state=answered, n_samples=1, temperature=1.0, seed=0)
        )


def test_unknown_question_id_is_rejected():
    backend = ToyBackend()
    from conftest import make_state

    state = make_state(question_id="mystery-1")
    with pytest.raises(ContractViolation):
        backend.propose_steps(
            ProposalRequest(state=state, n_samples=1, temperature=1.0, seed=0)
        )


def test_gold_answers_are_normalizable():
    for problem in toy_corpus(10, seed=3):
        answer = normalize_answer(problem.gold_answer)
        assert answer.numeric is not None


class _SplitMix64:
    """SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), written from its
    definition: the state starts at the seed mod 2**64, and each output adds
    the golden gamma to it and finalizes the sum."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def random(self):
        return (self.next() >> 11) / 2**53


def _reference_sample(actions, n, temperature, seed):
    """Sampling from scratch, without memoized tables, each mark from the
    next SplitMix64 output of the seed: the reference the backend's memoized
    sampler must match pick for pick."""
    n = min(n, len(actions))
    if temperature <= DETERMINISTIC_TEMPERATURE:
        ranked = sorted(range(len(actions)), key=lambda i: (-actions[i].prob, i))
        return [actions[i] for i in ranked[:n]]
    logs = [math.log(a.prob) / temperature for a in actions]
    peak = max(logs)
    weights = [math.exp(l - peak) for l in logs]
    rng = _SplitMix64(seed)
    picked = []
    alive = list(range(len(actions)))
    for _ in range(n):
        total = sum(weights[i] for i in alive)
        mark = rng.random() * total
        acc = 0.0
        chosen = alive[-1]
        for i in alive:
            acc += weights[i]
            if mark < acc:
                chosen = i
                break
        picked.append(actions[chosen])
        alive.remove(chosen)
    return picked


def _table_sampler(probs, temperature=1.0, name="tbl"):
    actions = [
        ToyAction(label=f"op{i}", kind=ActionKind.OP, prob=p, value_before=0, value_after=i)
        for i, p in enumerate(probs)
    ]
    return actions, TableProblem(name, "0", {(): actions}).sampler((), temperature)


def test_memoized_sampler_matches_sampling_from_scratch():
    rng = random.Random(17)
    tables = []
    for size in (1, 1, 2, 3, 4, 5, 6, 8):
        raw = [rng.choice([1.0, 1.0, rng.uniform(1e-6, 1.0)]) for _ in range(size)]
        tables.append([p / sum(raw) for p in raw])
    tables.append([0.5, 0.25, 0.25])  # the ties toy problems produce
    for t, probs in enumerate(tables):
        for temperature in (1.0, 0.7, DETERMINISTIC_TEMPERATURE):
            actions, sampler = _table_sampler(probs, temperature, f"tbl-{t}")
            for n in (1, 2, 5, 50):
                for seed in range(200):
                    got = sampler.sample(n, seed)
                    want = _reference_sample(actions, n, temperature, seed)
                    assert got == want, (probs, temperature, n, seed)


def test_the_mix_is_splitmix64():
    # Seed 0's first four SplitMix64 outputs as published with the
    # algorithm; the sampler's uniforms are their top 53 bits.
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    reference = _SplitMix64(0)
    assert [reference.next() for _ in published] == published
    assert [_splitmix_uniform((i + 1) * _GAMMA) for i in range(4)] == [
        (out >> 11) / 2**53 for out in published
    ]
    # the seed is taken mod 2**64: seeds a wrap apart pick alike
    actions, sampler = _table_sampler([0.4, 0.3, 0.2, 0.1])
    for seed in (0, 1, 12345, 2**63 - 1, -1, -(2**63)):
        for n in (1, 2, 4):
            picks = [sampler.sample(n, s) for s in (seed, seed + 2**64, seed - 2**64)]
            assert picks[0] == picks[1] == picks[2] == _reference_sample(actions, n, 1.0, seed)


@pytest.mark.parametrize("probs", [[0.5, 0.25, 0.25], [0.6, 0.25, 0.1, 0.05]])
@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_picks_follow_the_tempered_weights_on_consecutive_seeds(probs, temperature):
    # Consecutive seeds are the weakest input for a mix. With 20,000 seeds, a
    # correct sampler misses 0.02 on any one frequency with probability below
    # 2 * exp(-2 * 20000 * 0.02**2) < 1e-6 (Hoeffding); the seeds are fixed,
    # so the test is deterministic.
    seeds = range(20_000)
    actions, sampler = _table_sampler(probs, temperature)
    tempered = [p ** (1 / temperature) for p in probs]
    weights = [w / sum(tempered) for w in tempered]
    index = {action.label: i for i, action in enumerate(actions)}
    firsts = Counter(index[sampler.sample(1, seed)[0].label] for seed in seeds)
    for i, weight in enumerate(weights):
        assert abs(firsts[i] / len(seeds) - weight) < 0.02, (i, firsts)
    pairs = Counter(tuple(index[a.label] for a in sampler.sample(2, seed)) for seed in seeds)
    for i, j in itertools.permutations(range(len(probs)), 2):
        want = weights[i] * weights[j] / (1 - weights[i])
        assert abs(pairs[i, j] / len(seeds) - want) < 0.02, ((i, j), pairs)


def test_call_history_leaves_no_trace_in_a_seeded_pick():
    # Unseeded calls, calls with another n or seed, and calls on another
    # thread between seeded ones: each seeded pick is still the reference's.
    actions, sampler = _table_sampler([0.4, 0.3, 0.2, 0.1])

    def history(seed, other):
        for args in ((other, None), (other, seed + 1), (1, None), (4, seed)):
            sampler.sample(*args)

    for seed in range(150):
        for n, other in ((1, 3), (3, 1)):
            history(seed, other)
            assert sampler.sample(n, seed) == _reference_sample(actions, n, 1.0, seed), (n, seed)
            thread = threading.Thread(target=history, args=(seed, other))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert sampler.sample(n, seed) == _reference_sample(actions, n, 1.0, seed), (n, seed)


def test_threads_sampling_one_table_interleaved_get_the_serial_picks():
    actions, sampler = _table_sampler([0.35, 0.25, 0.2, 0.15, 0.05], 0.7)
    calls = [(n, seed) for n in (1, 2, 3, 5) for seed in range(0, 2**63, 2**63 // 300)]
    serial = [sampler.sample(n, seed) for n, seed in calls]
    results = [{} for _ in range(4)]

    def work(slot):
        order = list(range(len(calls)))
        random.Random(slot).shuffle(order)
        for i in order:
            sampler.sample(calls[i][0], None)
            results[slot][i] = sampler.sample(*calls[i])

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert [result[i] for i in range(len(calls))] == serial


def test_toy_proposals_are_built_once_and_shared():
    problem = generate_problem(42)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    request = ProposalRequest(state=problem.root_state(), n_samples=5, temperature=1.0, seed=3)
    first, again = backend.propose_steps(request), backend.propose_steps(request)
    assert first and all(a is b for a, b in zip(first, again))
    cached = {id(a.proposal) for a in problem.actions_at(())}
    assert {id(p) for p in first} <= cached
    assert all(p.value is None for p in first)  # the toy attaches no values


def test_rollout_estimates_keep_their_pinned_bits():
    # Root states of acceptance criterion 2, with its seeds; the values were
    # recorded with the SplitMix64 sampler, so any change to a draw or to the
    # float arithmetic shows here.
    problems = toy_corpus(20, seed=202)
    backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
    pinned = {
        0: "-0x1.e24dd2f1a9fbep-2",
        1: "-0x1.df3b645a1cac1p-4",
        5: "-0x1.604189374bc6ap-3",
    }
    for index, want in pinned.items():
        problem = problems[index]
        estimate = mc_rollout_estimate(
            problem.root_state(), problem.gold_answer, backend,
            n_rollouts=2000, seed=derive_seed(202, index),
        )
        assert estimate.hex() == want, index


def test_rollouts_below_the_root_keep_their_pinned_bits():
    # Deeper states of acceptance criterion 2, walked from Random(202) after
    # its 20 root states. Every state below a toy root has one outcome, so
    # the estimate pins only that each path finishes; the digest of the
    # sampled paths pins every draw. Both were recorded with the SplitMix64
    # sampler.
    problems = toy_corpus(20, seed=202)
    backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
    rng = random.Random(202)
    states = [(p, p.root_state()) for p in problems]
    while len(states) < 27:
        problem = problems[rng.randrange(len(problems))]
        states.append((problem, _random_deeper_state(problem, rng)))
    pinned = {
        21: ("-0x1.0000000000000p+0", "0bf2811676e6c97f54780fc3ed4637b9"),
        23: ("-0x1.0000000000000p+0", "4b43767b37c70cb03353f1a3ee79fe6e"),
        26: ("0x1.0000000000000p+0", "87615ead8a8dacdce5a438e798bbcdfe"),
    }
    for index, (want_estimate, want_digest) in pinned.items():
        problem, state = states[index]
        assert state.depth >= 1
        estimate = mc_rollout_estimate(
            state, problem.gold_answer, backend, n_rollouts=2000, seed=derive_seed(202, index),
        )
        assert estimate.hex() == want_estimate, index
        paths = random.Random(derive_seed(202, index))
        digest = hashlib.blake2b(digest_size=16)
        for _ in range(200):
            digest.update(sample_path(state, backend, 1.0, 8, paths).render().encode())
        assert digest.hexdigest() == want_digest, index


def _rollout_requests(problems, seed):
    """Proposal requests along sampled paths, at every temperature in use."""
    walker = ToyBackend.for_corpus(problems)
    rng = random.Random(seed)
    requests = []
    for problem in problems:
        for _ in range(6):
            state = problem.root_state()
            while not state.has_answer:
                for temperature, n in ((1.0, 5), (0.6, 2), (DETERMINISTIC_TEMPERATURE, 1)):
                    requests.append(
                        ProposalRequest(state=state, n_samples=n, temperature=temperature,
                                        seed=rng.randrange(2**63))
                    )
                state = apply_step(state, rng.choice(walker.propose_steps(requests[-3])).step)
    return requests


def test_concurrent_proposals_match_serial_ones():
    problems = toy_corpus(6, seed=21)
    requests = _rollout_requests(problems, seed=21)
    serial_backend = ToyBackend.for_corpus(problems)
    serial = [[p.step for p in serial_backend.propose_steps(r)] for r in requests]

    # Cold shared caches, four threads each walking the requests in its own
    # order, and frequent thread switches: racing memo fills must not change
    # a single proposal.
    shared = ToyBackend(mode=Mode.ORACLE)
    results = [{} for _ in range(4)]

    def work(slot):
        order = list(range(len(requests)))
        random.Random(slot).shuffle(order)
        for i in order:
            results[slot][i] = [p.step for p in shared.propose_steps(requests[i])]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert [result[i] for i in range(len(requests))] == serial


def test_concurrent_rollout_draws_match_serial_ones():
    # The rollout path: one step at temperature 1.0 per request. Four threads
    # share one backend, each interleaving unseeded requests with its seeded
    # ones, while frequent thread switches interleave the threads' draws.
    problems = toy_corpus(6, seed=22)
    serial_backend = ToyBackend.for_corpus(problems)
    rng = random.Random(22)
    requests = []
    for problem in problems:
        for _ in range(20):
            state = problem.root_state()
            while not state.has_answer:
                requests.append(ProposalRequest(state, 1, 1.0, rng.randrange(2**63)))
                state = apply_step(state, serial_backend.propose_steps(requests[-1])[0].step)
    serial = [[p.step for p in serial_backend.propose_steps(r)] for r in requests]
    shared = ToyBackend(mode=Mode.ORACLE)
    results = [{} for _ in range(4)]

    def work(slot):
        order = list(range(len(requests)))
        random.Random(slot).shuffle(order)
        for i in order:
            shared.propose_steps(replace(requests[i], seed=None))
            results[slot][i] = [p.step for p in shared.propose_steps(requests[i])]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert [result[i] for i in range(len(requests))] == serial


@pytest.mark.parametrize("temperature", [1.0, 0.7, DETERMINISTIC_TEMPERATURE])
def test_empty_action_table_is_a_dead_end(temperature):
    problem = TableProblem("tbl-x", "1", {(): []})
    backend = ToyBackend.for_corpus([problem])
    for n in (1, 3):
        request = ProposalRequest(
            state=problem.root_state(), n_samples=n, temperature=temperature, seed=0
        )
        assert backend.propose_steps(request) == []
