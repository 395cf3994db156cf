"""The repository's benchmark (see bench/README.md and BENCHMARK.json)."""
