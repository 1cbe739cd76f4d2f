"""phonosim: corpus- and typology-driven language similarity toolkit.

Converts text to IPA phoneme sequences through table-driven G2P, measures
phonological proximity between languages (cosine similarity of unigram
phoneme distributions), maps family structure (PCA plus weighted Gaussian
KDE contours), selects source languages for cross-lingual low-resource
training, and scores transcriptions with phoneme error rate.

Each name lives in its own module; importing the package loads none of them.
"""

__version__ = "0.1.0"
