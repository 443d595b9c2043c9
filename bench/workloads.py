"""The benchmark's workloads: CLI argv, config text, child environment.

Each workload loads a different layer of the solver (see BENCHMARK.json for
the one-line reasons):

* bounded_spectral -- the lambda = 20 boundedness demo, shortened: about a
  thousand spectral Strang steps per diagnostics record, so transport and
  relaxation dominate and diagnostics are nearly absent.
* sweep_upwind -- the acceptance sweep: four epsilon members on a thread
  pool, cheap upwind transport, so relaxation and compute_record dominate.
* vortex_reference -- file initial data from the benchmark's seed, which is
  the only path that steps the pseudo-spectral Navier-Stokes reference and
  reads a snapshot; records every step at n = 128, where the state no longer
  fits in a 2 MiB L2.
"""

from __future__ import annotations

from dataclasses import dataclass

# the vortex_reference input is field number (seed mod VORTEX_FIELDS); the
# expected outputs of every field are stored in expected.json
VORTEX_FIELDS = 32

# components of the kinetic state f: five vector densities of three components
STATE_COMPONENTS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # vbgk subcommand: "run" or "sweep"
    config: dict[str, str]
    threads: int                      # VBGK_THREADS of the child process
    epsilons: tuple[float, ...] = ()  # sweep members; empty for "run"
    seeded: bool = False              # True when the input depends on --seed

    @property
    def n(self) -> int:
        return int(self.config["n"])

    @property
    def state_bytes(self) -> int:
        """Bytes of one float64 kinetic state (5, 3, n, n) at this workload's n."""
        return STATE_COMPONENTS * self.n * self.n * 8

    def config_text(self, initial_data: str | None = None) -> str:
        cfg = dict(self.config)
        if initial_data is not None:
            cfg["initial_data"] = initial_data
        return "".join(f"{k} = {v}\n" for k, v in cfg.items())

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.epsilons:
            argv += ["--epsilons", ",".join(f"{e:g}" for e in self.epsilons)]
        return argv

    def member_epsilons(self) -> tuple[float, ...]:
        return self.epsilons or (float(self.config["epsilon"]),)

    def steps(self) -> int:
        """Strang steps of one process, summed over sweep members, from the
        package's own time grid (kinetic.step_times mirrors kinetic.run)."""
        from vbgk import driver, kinetic
        from vbgk.config import parse_config_text

        cfg = parse_config_text(self.config_text("taylor_green"))
        total = 0
        for eps in self.member_epsilons():
            sub = cfg.with_epsilon(eps)
            times, _ = kinetic.step_times(driver.solver_config(sub), driver.build_params(sub),
                                          driver.build_grid(sub).dx)
            total += len(times)
        return total


def _base(**overrides) -> dict[str, str]:
    cfg = {"tau": "1.0", "nu": "0.01", "rho_bar": "1.0"}
    cfg.update(overrides)
    return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bounded_spectral",
            command="run",
            config=_base(epsilon="0.05", **{"lambda": "20.0"}, n="64", t_end="0.125",
                         record_every="200", transport_mode="spectral",
                         initial_data="taylor_green", snapshot_times="0.05, 0.125"),
            threads=1,
        ),
        Workload(
            name="sweep_upwind",
            command="sweep",
            config=_base(epsilon="0.2", **{"lambda": "2.0"}, n="64", t_end="0.5",
                         record_every="10", transport_mode="upwind",
                         initial_data="taylor_green"),
            threads=2,
            epsilons=(0.2, 0.1, 0.05, 0.025),
        ),
        Workload(
            name="vortex_reference",
            command="run",
            config=_base(epsilon="0.1", **{"lambda": "2.0"}, n="128", t_end="0.05",
                         record_every="1", transport_mode="spectral"),
            threads=1,
            seeded=True,
        ),
    )
}


def vortex_field_index(seed: int) -> int:
    return seed % VORTEX_FIELDS


def child_env(base: dict[str, str], workload: Workload, src_dir: str,
              threads: int | None = None) -> dict[str, str]:
    """Environment of a workload process.

    VBGK_THREADS is always set explicitly; the BLAS/OpenMP pools are pinned to
    one thread so the LAPACK eigvals inside validate adds no threads beyond
    the sweep's workers.
    """
    env = dict(base)
    env["PYTHONPATH"] = src_dir + (":" + base["PYTHONPATH"] if base.get("PYTHONPATH") else "")
    env["VBGK_THREADS"] = str(threads if threads is not None else workload.threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env
