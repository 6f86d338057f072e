"""Entity-resolution substrate: entities, blocking, similarity, matching."""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "CONSTANT_BLOCK_KEY": ".blocking",
    "AttributeBlocking": ".blocking",
    "BlockingFunction": ".blocking",
    "BlockKey": ".blocking",
    "CallableBlocking": ".blocking",
    "CompositeBlocking": ".blocking",
    "ConstantBlocking": ".blocking",
    "MultiPassBlocking": ".blocking",
    "PrefixBlocking": ".blocking",
    "normalize_string": ".blocking",
    "AttributeRule": ".comparators",
    "ConjunctiveMatcher": ".comparators",
    "WeightedMatcher": ".comparators",
    "exact_rule": ".comparators",
    "numeric_rule": ".comparators",
    "string_rule": ".comparators",
    "Entity": ".entity",
    "make_entities": ".entity",
    "AlwaysMatcher": ".matching",
    "Matcher": ".matching",
    "MatchPair": ".matching",
    "MatchResult": ".matching",
    "RecordingMatcher": ".matching",
    "ThresholdMatcher": ".matching",
    "brute_force_match": ".matching",
    "brute_force_pairs": ".matching",
    "jaccard_similarity": ".similarity",
    "jaro_similarity": ".similarity",
    "jaro_winkler_similarity": ".similarity",
    "levenshtein_distance": ".similarity",
    "levenshtein_distance_reference": ".similarity",
    "levenshtein_similarity": ".similarity",
    "levenshtein_similarity_bounded": ".similarity",
    "levenshtein_similarity_bounded_reference": ".similarity",
    "ngram_jaccard": ".similarity",
    "similarity_at_least": ".similarity",
    "ngrams": ".similarity",
    "numeric_similarity": ".similarity",
    "token_jaccard": ".similarity",
    "weighted_average": ".similarity",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
