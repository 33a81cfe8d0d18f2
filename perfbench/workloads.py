"""The benchmark's workloads: fixed manufactured-solution passes.

Every input is a closed-form solution on a uniform mesh, so a pass is
fully deterministic; the benchmark seed only orders passes and workloads.
A spec is a plain dict so that it crosses the process boundary as JSON.
"""

from __future__ import annotations

WORKLOADS = {
    # Paper Table 3 (criterion 4), the CLI default for eg2. Two sparse LUs
    # (static saddle and the CN step matrix, 22M nonzeros at n=32) take
    # half of the pass, and every step assembles the Dirichlet load.
    "eg2-cn-converge": {"case": "eg2", "alpha": 2.2, "k": 2, "scheme": "cn",
                        "n_list": [4, 8, 16, 32], "dt": None},
    # Paper Table 6 (criterion 3), the CLI default for eg3. The real 2N
    # RadauIIA stage LU (53M nonzeros at n=16) is over half of the pass;
    # homogeneous boundary data, so there is no Dirichlet load work.
    "eg3-radau-converge": {"case": "eg3", "alpha": None, "k": 3, "scheme": "radau2",
                           "n_list": [4, 8, 16], "dt": None},
    # dt refinement: one small factorization amortised over 1023 cheap
    # steps, each dominated by the solve and the per-step load assembly.
    "eg2-cn-fine-dt": {"case": "eg2", "alpha": 2.2, "k": 2, "scheme": "cn",
                       "n_list": [16], "dt": 1.0 / 1024},
}


def smoke_spec(spec: dict) -> dict:
    """The same workload on the coarsest (n=4) mesh only."""
    return {**spec, "n_list": [4]}


def step_size(spec: dict, n: int) -> float:
    return 1.0 / n if spec["dt"] is None else spec["dt"]


def pass_key(spec: dict, n: int) -> str:
    """Key of one mesh of a pass in the reference error table."""
    alpha = "" if spec["alpha"] is None else f"-a{spec['alpha']!r}"
    return (f"{spec['case']}{alpha}-k{spec['k']}-{spec['scheme']}"
            f"-n{n}-dt{step_size(spec, n)!r}")


def command_line(spec: dict) -> str:
    """The ``mixedelast`` command that computes the same errors by hand."""
    many = len(spec["n_list"]) > 1
    words = ["mixedelast", "converge" if many else "run", "--case", spec["case"]]
    if spec["alpha"] is not None:
        words += ["--alpha", repr(spec["alpha"])]
    words += ["--k", str(spec["k"]), "--scheme", spec["scheme"]]
    if many:
        words += ["--n-list", ",".join(str(n) for n in spec["n_list"])]
    else:
        words += ["--n", str(spec["n_list"][0])]
    if spec["dt"] is not None:
        words += ["--dt", repr(spec["dt"])]
    return " ".join(words)
