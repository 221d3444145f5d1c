"""The collection store: keyed access to collections of objects.

Python adaptation of the paper's section 5:

* a **collection** is a set of persistent objects sharing a schema class
  and one or more indexes,
* **functional indexes**: keys are produced by applying a pure extractor
  function to each object, so variable-sized and derived keys work and no
  separate data-definition language is needed,
* index kinds: **B+tree** (scan, exact-match, range), **dynamic hash
  table** (Larson linear hashing; scan, exact-match) and **list** (scan),
* indexes are **maintained automatically**: inserts update them
  immediately; updates and deletes made through iterators are applied at
  iterator close,
* iterators are **insensitive** (section 5.2.2): a query captures its
  result set, updates are deferred until close, only one iterator may
  hand out writable references at a time, and iteration is
  unidirectional — together these rule out the Halloween syndrome,
* deferred uniqueness violations remove the violating objects from the
  collection and raise :class:`~repro.errors.IndexIntegrityError`
  carrying their ids so the application can re-integrate them
  (section 5.2.3).
"""

from repro.collectionstore.keys import encode_key, decode_key, compare_keys
from repro.collectionstore.indexer import Indexer, IndexDescriptor
from repro.collectionstore.collection import Collection, CollectionHandle
from repro.collectionstore.iterators import CollectionIterator
from repro.collectionstore.ctransaction import CTransaction
from repro.collectionstore.store import CollectionStore, register_collection_classes

__all__ = [
    "encode_key",
    "decode_key",
    "compare_keys",
    "Indexer",
    "IndexDescriptor",
    "Collection",
    "CollectionHandle",
    "CollectionIterator",
    "CTransaction",
    "CollectionStore",
    "register_collection_classes",
]
