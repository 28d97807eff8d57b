//! Deterministic text corpora for the word-count experiments.
//!
//! Word count (paper §3.4, Figs. 11–12) needs word lists of controllable
//! size. The generator draws from a fixed vocabulary with a Zipf-like
//! rank distribution, so common words repeat the way natural text does —
//! which is what gives MapReduce's grouping phase real work.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use snap_ast::Value;

/// The vocabulary, most frequent first.
const VOCABULARY: &[&str] = &[
    "the", "of", "and", "a", "to", "in", "is", "you", "that", "it", "he", "was", "for", "on",
    "are", "as", "with", "his", "they", "at", "be", "this", "have", "from", "or", "one", "had",
    "by", "word", "but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
    "there", "use", "an", "each", "which", "she", "do", "how", "their", "if", "will", "up",
    "other", "about", "out", "many", "then", "them", "these", "so", "some", "her", "would", "make",
    "like", "him", "into", "time", "has", "look", "two", "more", "write", "go", "see", "number",
    "no", "way", "could", "people", "my", "than", "first", "water", "been", "call", "who", "oil",
    "its", "now", "find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
    "snap", "parallel", "worker", "sprite", "block",
];

/// A sentence used throughout the examples (word count's demo input).
pub const SAMPLE_SENTENCE: &str = "the quick brown fox jumps over the lazy dog while the cat naps";

/// Generate `n` words with a Zipf-like distribution (deterministic in
/// the seed).
pub fn generate_words(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Precompute cumulative Zipf weights (1/rank).
    let weights: Vec<f64> = (1..=VOCABULARY.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..total);
            let idx = cumulative.partition_point(|&c| c < x);
            VOCABULARY[idx.min(VOCABULARY.len() - 1)].to_owned()
        })
        .collect()
}

/// The same corpus as Snap! list items.
pub fn generate_word_values(n: usize, seed: u64) -> Vec<Value> {
    generate_words(n, seed)
        .into_iter()
        .map(Value::from)
        .collect()
}

/// Reference word count (sorted by word), for validating MapReduce
/// output.
pub fn reference_counts(words: &[String]) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    for w in words {
        match counts.iter_mut().find(|(k, _)| k == w) {
            Some((_, c)) => *c += 1,
            None => counts.push((w.clone(), 1)),
        }
    }
    counts.sort_by(|a, b| a.0.cmp(&b.0));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_words(100, 7), generate_words(100, 7));
        assert_ne!(generate_words(100, 7), generate_words(100, 8));
    }

    #[test]
    fn distribution_is_zipf_like() {
        let words = generate_words(20_000, 42);
        let counts = reference_counts(&words);
        let get = |w: &str| {
            counts
                .iter()
                .find(|(k, _)| k == w)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        // "the" (rank 1) should dominate a mid-rank word by a wide margin.
        assert!(get("the") > 5 * get("number").max(1));
        // And every generated word is in the vocabulary.
        assert!(words.iter().all(|w| VOCABULARY.contains(&w.as_str())));
    }

    #[test]
    fn reference_counts_sum_to_input_length() {
        let words = generate_words(500, 1);
        let counts = reference_counts(&words);
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 500);
        // Sorted by word.
        for pair in counts.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn word_values_are_the_words_as_text() {
        let words = generate_words(300, 9);
        let values = generate_word_values(300, 9);
        assert_eq!(values.len(), words.len());
        for (value, word) in values.iter().zip(&words) {
            assert_eq!(value, &Value::text(word.as_str()));
        }
        assert!(generate_words(0, 9).is_empty());
        assert!(reference_counts(&[]).is_empty());
    }

    #[test]
    fn sample_sentence_counts() {
        let words: Vec<String> = SAMPLE_SENTENCE.split(' ').map(String::from).collect();
        let counts = reference_counts(&words);
        assert_eq!(counts.iter().find(|(w, _)| w == "the").unwrap().1, 3);
    }
}
