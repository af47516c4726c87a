"""Reference implementations that differential tests compare against.

Each oracle is the straightforward formulation a fast path in ``src/``
replaced, kept verbatim so the fast path can be proven output-identical
to it.  None of them is part of the package.
"""
