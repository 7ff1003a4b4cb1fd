"""The robust scatter estimator on its two kinds of data.

With no dominant subspace the fixed-point iteration settles on an
interior positive definite matrix.  When a majority of points share a
low-dimensional subspace the iterates instead flatten onto it, and the
top eigenvectors of the last usable iterate read off that subspace.
"""

import numpy as np

from subrec.estimator import estimate, fixed_point_step
from subrec.subspace import recovery_error, top_d_subspace
from subrec.synthetic import SyntheticModel, generate


def describe(name, result, points):
    eigs = np.linalg.eigvalsh(result.sigma)
    residual = np.linalg.norm(fixed_point_step(result.sigma, points) - result.sigma)
    print(f"--- {name} ---")
    print("termination   :", result.termination.value)
    print("iterations    :", result.iterations)
    print("eigenvalues   :", np.array2string(eigs, precision=4))
    print("step residual :", residual)


def main():
    # balanced cloud: every direction carries its share of the points
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((60, 4))
    result = estimate(cloud)
    describe("generic cloud in R^4", result, cloud)
    print()

    # planted instance: 120 points on a 5-dim subspace of R^10, plus
    # 100 outliers.  120/220 is past the 5/10 threshold, so the
    # iteration drives the off-subspace eigenvalues toward zero; the
    # run ends when the step stalls, or earlier if the flattening
    # iterate stops being usable.
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=120, n_outliers=100, seed=1
    )
    points, truth = generate(model)
    seen = []
    result = estimate(points, observer=lambda sigma, record: seen.append((sigma, record)))
    describe("planted subspace, inlier majority", result, points)
    found = top_d_subspace(result.sigma, 5)
    print("recovery error:", recovery_error(found, truth))
    print()

    # the observer received each iterate and its record; the smallest
    # eigenvalue is the observer's own eigensolve
    print("first iterations of the planted run:")
    for sigma, record in seen[:5]:
        lambda_min = np.linalg.eigvalsh(sigma)[0]
        print(
            f"  k={record.k}  cost={record.objective:+.6f}  "
            f"rel_step={record.rel_step:.3e}  lambda_min={lambda_min:.3e}"
        )


if __name__ == "__main__":
    main()
