"""Workload definitions shared by run.py, its worker and its oracle.

Only numpy is imported here.  Every input the program receives is built from
these definitions, and the oracle builds its own copy of the same inputs, so
nothing the oracle checks against comes out of the program under test.
"""

from dataclasses import dataclass

import numpy as np

T = 1.0  # horizon of every claim

# Lower strikes the jobs draw from; every claim has L = K + 1, so payoffs and
# prices lie in [0, 1] and the 9 significant digits of the CSV output are
# accurate to 5e-10 in absolute terms.
STRIKE_POOL = tuple(2.5 + 0.5 * i for i in range(9))
SPREAD = 1.0

# Absolute slack for values read back from the CSV output.
CSV_TOL = 1e-9

# Audit family: Neumann Laplacian plus a Gaussian jump kernel of total rate
# JUMP_RATE and width JUMP_WIDTH, with drift uncertainty lambda in [-1, 1].
JUMP_RATE = 2.0
JUMP_WIDTH = 0.5

# Explicit time-stepping: Euler takes 4N steps and RK4 N steps, so both make
# 4N Q-applies per curve.  N = 1250 keeps h * max|q_ii| <= 0.96 (RK4) and
# 0.24 (Euler) on the worst configuration, the volatility family at d = 201.
RK4_STEPS = 1250
EULER_STEPS = 4 * RK4_STEPS
NISIO_LEVEL = 10
AUDIT_EULER_FACTORS = 10  # the CLI default for nisio flows
REFINE_TOL = 1e-4


@dataclass(frozen=True)
class Experiment:
    """An uncertainty interval q0 + lambda * q and the claim priced under it."""

    name: str
    q0: str            # 'laplacian' | 'zero' | 'jump'; jump is written to a file
    q: str             # 'drift' | 'laplacian'
    lambda_low: float
    lambda_high: float
    payoff: str        # 'butterfly' | 'bull'


DRIFT = Experiment("drift", "laplacian", "drift", -1.0, 1.0, "butterfly")
VOL = Experiment("vol", "zero", "laplacian", 0.5, 1.5, "bull")
# A butterfly: a bull spread is increasing, so the upward drift wins in every
# state, the envelope is linear and refinement stops at level 1.
JUMP = Experiment("jump", "jump", "drift", -1.0, 1.0, "butterfly")


@dataclass(frozen=True)
class Template:
    """One job of a round, before its strike is drawn."""

    experiment: Experiment
    method: str        # 'ode-euler' | 'ode-rk4' | 'nisio'
    steps: int = 0
    n: int = 0
    k: int = 0         # Euler-product factors for nisio; 0 means exact

    def tolerance(self) -> float:
        """Method-order tolerance against the independent nonlinear reference.

        Euler and the dyadic envelope are first order in their step h, with a
        constant of 1 per unit horizon.  RK4 drops to second order on these
        kinked payoffs; its constant 100 leaves a 25-fold margin over the
        measured error.
        """
        if self.method == "nisio":
            return T / 2**self.n + CSV_TOL
        h = T / self.steps
        if self.method == "ode-rk4":
            return 100.0 * h * h + CSV_TOL
        return h + CSV_TOL


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    delta: float
    round: tuple       # templates run in this order, once per round

    @property
    def experiments(self) -> tuple:
        seen = []
        for tpl in self.round:
            if tpl.experiment not in seen:
                seen.append(tpl.experiment)
        return tuple(seen)


WORKLOADS = {
    "stepping": Workload(
        "stepping", 201, 0.05,
        (Template(DRIFT, "ode-euler", steps=EULER_STEPS),
         Template(DRIFT, "ode-rk4", steps=RK4_STEPS),
         Template(VOL, "ode-euler", steps=EULER_STEPS),
         Template(VOL, "ode-rk4", steps=RK4_STEPS)),
    ),
    "dyadic": Workload(
        "dyadic", 401, 0.025,
        (Template(DRIFT, "nisio", n=NISIO_LEVEL, k=0),
         Template(VOL, "nisio", n=NISIO_LEVEL, k=0)),
    ),
    "audit": Workload(
        "audit", 201, 0.05,
        (Template(JUMP, "nisio", n=NISIO_LEVEL, k=AUDIT_EULER_FACTORS),),
    ),
}


@dataclass(frozen=True)
class Job:
    index: int
    template: Template
    K: float

    @property
    def L(self) -> float:
        return self.K + SPREAD


def job_sequence(workload: Workload, seed: int, stream: int):
    """Endless sequence of jobs, in whole rounds.  Strikes are drawn from the
    pool by a generator seeded with the run's seed and the worker process's
    number, so one seed always gives the same inputs."""
    rng = np.random.default_rng([seed, stream])
    index = 0
    while True:
        round_jobs = []
        for tpl in workload.round:
            K = STRIKE_POOL[int(rng.integers(len(STRIKE_POOL)))]
            round_jobs.append(Job(index, tpl, K))
            index += 1
        yield round_jobs


def warmup_job(workload: Workload) -> Job:
    """The untimed first job of a process; its strike does not use the seed."""
    return Job(-1, workload.round[0], STRIKE_POOL[len(STRIKE_POOL) // 2])


# ----------------------------------------------------------------- inputs ---

def grid_points(d: int, delta: float) -> np.ndarray:
    return np.arange(d) * delta


def laplacian(d: int, delta: float) -> np.ndarray:
    """Second differences with reflecting ends, scaled by 1/delta^2."""
    m = np.zeros((d, d))
    i = np.arange(d)
    m[i[:-1], i[:-1] + 1] = 1.0
    m[i[1:], i[1:] - 1] = 1.0
    m[i, i] = -m.sum(axis=1)
    return m / delta**2


def drift(d: int, delta: float) -> np.ndarray:
    """Upward first differences, scaled by 1/delta; the top state absorbs."""
    m = np.zeros((d, d))
    i = np.arange(d - 1)
    m[i, i] = -1.0
    m[i, i + 1] = 1.0
    return m / delta


def jump_laplacian(d: int, delta: float) -> np.ndarray:
    """Neumann Laplacian plus jumps to every other state with Gaussian
    weights in the jump size, normalised to total rate JUMP_RATE per state."""
    x = grid_points(d, delta)
    kernel = np.exp(-0.5 * ((x[None, :] - x[:, None]) / JUMP_WIDTH) ** 2)
    np.fill_diagonal(kernel, 0.0)
    kernel *= JUMP_RATE / kernel.sum(axis=1, keepdims=True)
    np.fill_diagonal(kernel, -kernel.sum(axis=1))
    return laplacian(d, delta) + kernel


def matrix(kind: str, d: int, delta: float) -> np.ndarray:
    builders = {"laplacian": laplacian, "drift": drift, "jump": jump_laplacian}
    if kind == "zero":
        return np.zeros((d, d))
    return builders[kind](d, delta)


def endpoints(exp: Experiment, d: int, delta: float) -> tuple:
    """The two endpoint rate matrices of the experiment's interval."""
    q0, q = matrix(exp.q0, d, delta), matrix(exp.q, d, delta)
    return q0 + exp.lambda_low * q, q0 + exp.lambda_high * q


def payoff(kind: str, d: int, delta: float, K: float) -> np.ndarray:
    x = grid_points(d, delta)
    L = K + SPREAD
    if kind == "butterfly":
        return np.maximum(L - K - np.abs(x - L), 0.0)
    return np.minimum(np.maximum(x - K, 0.0), L - K)


def reference_lambdas(exp: Experiment) -> tuple:
    """The linear references an audit price job asks for, and the oracle's
    in-band references on every workload."""
    return (exp.lambda_low, 0.5 * (exp.lambda_low + exp.lambda_high), exp.lambda_high)


def price_argv(workload: Workload, job: Job, out, matrix_files=None) -> list:
    """Command line of a ``price`` job."""
    exp, tpl = job.template.experiment, job.template
    q0 = f"file:{matrix_files[0]}" if exp.q0 == "jump" else exp.q0
    q = f"file:{matrix_files[1]}" if exp.q0 == "jump" else exp.q
    argv = ["price", "--d", str(workload.d), "--delta", repr(workload.delta),
            "--t", repr(T), "--q0", q0, "--q", q,
            "--lambda-low", repr(exp.lambda_low), "--lambda-high", repr(exp.lambda_high),
            "--payoff", exp.payoff, "--K", repr(job.K), "--L", repr(job.L),
            "--method", tpl.method, "--out", str(out)]
    if tpl.method == "nisio":
        argv += ["--n", str(tpl.n), "--k", str(tpl.k)]
    else:
        argv += ["--steps", str(tpl.steps)]
    if workload.name == "audit":
        # The '=' form: '--refs -1,0,1' is parsed as an option and exits 2.
        argv.append("--refs=" + ",".join(f"{lam:g}" for lam in reference_lambdas(exp)))
    return argv


def validate_argv(workload: Workload, job: Job, matrix_files) -> list:
    exp = job.template.experiment
    return ["validate", "--d", str(workload.d), "--delta", repr(workload.delta),
            "--q0", f"file:{matrix_files[0]}", "--q", f"file:{matrix_files[1]}",
            "--lambda-low", repr(exp.lambda_low), "--lambda-high", repr(exp.lambda_high)]
