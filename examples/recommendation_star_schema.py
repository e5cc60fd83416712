"""Star-schema recommendation data: ratings joined with users and movies.

Section 3.5 of the paper motivates the multi-table extension with
recommendation systems: a ratings table with two foreign keys into a users
table and a movies table.  This example builds a MovieLens-style star schema,
wraps it in a multi-join normalized matrix and runs two of the paper's
algorithms -- least-squares rating prediction and K-Means user-item
clustering -- comparing factorized and materialized execution.

Run with::

    python examples/recommendation_star_schema.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import KMeans, LinearRegressionNE, NormalizedMatrix
from repro.ml import root_mean_squared_error, standardize
from repro.relational import Table, encode_features, pk_fk_indicator


def build_star_schema(num_ratings: int = 100_000, num_users: int = 1_000,
                      num_movies: int = 500, seed: int = 2):
    rng = np.random.default_rng(seed)

    def fk(num_rows: int, num_keys: int) -> np.ndarray:
        values = np.concatenate([np.arange(num_keys),
                                 rng.integers(0, num_keys, size=num_rows - num_keys)])
        rng.shuffle(values)
        return values

    ratings = Table("ratings", {
        "rating_id": np.arange(num_ratings),
        "user_id": fk(num_ratings, num_users),
        "movie_id": fk(num_ratings, num_movies),
    })
    users = Table("users", {
        "user_id": np.arange(num_users),
        "age": rng.uniform(15, 75, size=num_users),
        "activity": rng.uniform(0, 1, size=num_users),
        "gender": rng.choice(np.array(["m", "f"]), size=num_users),
        "occupation": rng.choice(np.array([f"occupation_{i}" for i in range(20)]),
                                 size=num_users),
    })
    movies = Table("movies", {
        "movie_id": np.arange(num_movies),
        "year": rng.integers(1950, 2017, size=num_movies).astype(float),
        "budget": rng.uniform(0.1, 300, size=num_movies),
        "genre": rng.choice(np.array(["drama", "comedy", "action", "scifi", "doc",
                                      "romance", "thriller", "animation", "war", "noir"]),
                            size=num_movies),
        "country": rng.choice(np.array([f"country_{i}" for i in range(30)]), size=num_movies),
    })
    return ratings, users, movies


def main() -> None:
    ratings, users, movies = build_star_schema()

    user_features = encode_features(users, columns=["age", "activity", "gender", "occupation"],
                                    sparse=False).matrix
    movie_features = encode_features(movies, columns=["year", "budget", "genre", "country"],
                                     sparse=False).matrix
    # Standardize the numeric columns (age/activity, year/budget) so the squared
    # distances in K-Means are not dominated by the raw year/budget scales.
    user_features[:, :2] = standardize(user_features[:, :2])
    movie_features[:, :2] = standardize(movie_features[:, :2])
    k_users = pk_fk_indicator(ratings, "user_id", users, "user_id")
    k_movies = pk_fk_indicator(ratings, "movie_id", movies, "movie_id")

    # The ratings table itself contributes no features (like Movies/Yelp in the
    # paper): the entity block is empty and the normalized matrix has two joins.
    normalized = NormalizedMatrix(None, [k_users, k_movies], [user_features, movie_features])
    materialized = np.asarray(normalized.materialize())
    print(f"star schema: T is {materialized.shape}, base tables hold "
          f"{user_features.size + movie_features.size} values "
          f"({normalized.redundancy_ratio():.1f}x redundancy avoided)")

    # Synthetic star ratings driven by the joined features.
    rng = np.random.default_rng(11)
    weights = rng.standard_normal((materialized.shape[1], 1)) * 0.2
    stars = np.clip(3.0 + materialized @ weights + 0.2 * rng.standard_normal((materialized.shape[0], 1)),
                    1.0, 5.0)

    # --- Rating prediction with least squares ------------------------------
    start = time.perf_counter()
    factorized_model = LinearRegressionNE().fit(normalized, stars)
    factorized_seconds = time.perf_counter() - start
    start = time.perf_counter()
    standard_model = LinearRegressionNE().fit(materialized, stars)
    materialized_seconds = time.perf_counter() - start
    rmse = root_mean_squared_error(stars, factorized_model.predict(normalized))
    print(f"\nlinear regression: F {factorized_seconds:.3f}s vs M {materialized_seconds:.3f}s "
          f"({materialized_seconds / factorized_seconds:.2f}x), RMSE {rmse:.3f}")
    print("identical coefficients:",
          bool(np.allclose(factorized_model.coef_, standard_model.coef_, atol=1e-6)))

    # --- Clustering ratings in the joined feature space --------------------
    start = time.perf_counter()
    factorized_kmeans = KMeans(num_clusters=8, max_iter=10, seed=5).fit(normalized)
    factorized_seconds = time.perf_counter() - start
    start = time.perf_counter()
    standard_kmeans = KMeans(num_clusters=8, max_iter=10, seed=5).fit(materialized)
    materialized_seconds = time.perf_counter() - start
    print(f"k-means: F {factorized_seconds:.3f}s vs M {materialized_seconds:.3f}s "
          f"({materialized_seconds / factorized_seconds:.2f}x)")
    print("identical assignments:",
          bool(np.array_equal(factorized_kmeans.labels_, standard_kmeans.labels_)))
    sizes = np.bincount(factorized_kmeans.labels_, minlength=8)
    print("cluster sizes:", sizes.tolist())


if __name__ == "__main__":
    main()
