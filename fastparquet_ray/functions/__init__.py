"""Operator library over Ray Datasets: relational ops mirroring the
reference's read/filter/stats surface (SURVEY.md §2.3/§2.6/§2.7), plus
the training-data-pipeline operators (dedup, text analysis, similarity
search)."""
