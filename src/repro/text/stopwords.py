"""Stopword lists used by the document analyzer.

Two lists are exported:

* :data:`STOPWORDS` -- the standard English function-word list applied to
  body text before stemming (paper section 2.2).
* :data:`ANCHOR_STOPWORDS` -- the *extended* list applied to anchor texts
  (paper section 3.4), which additionally removes navigational boilerplate
  such as "click here", "home", "next", "download" that would otherwise
  pollute anchor-text feature spaces.
"""

from __future__ import annotations

__all__ = ["STOPWORDS", "ANCHOR_STOPWORDS"]

STOPWORDS: frozenset[str] = frozenset("""
a about above after again against all am an and any are aren as at be because
been before being below between both but by can cannot could couldn did didn
do does doesn doing don down during each few for from further had hadn has
hasn have haven having he her here hers herself him himself his how i if in
into is isn it its itself just me more most mustn my myself no nor not now of
off on once only or other ought our ours ourselves out over own same shan she
should shouldn so some such than that the their theirs them themselves then
there these they this those through to too under until up very was wasn we
were weren what when where which while who whom why will with won would
wouldn you your yours yourself yourselves
also among amongst besides etc however indeed many may might much must
neither none nonetheless nothing otherwise per rather shall since somewhat
still thus upon via whether within without yet
""".split())

# Navigational boilerplate commonly found inside <a>...</a> tags.  The paper
# stresses that anchor texts need "an extended form of stopword elimination"
# to remove phrases like "click here".
ANCHOR_STOPWORDS: frozenset[str] = STOPWORDS | frozenset("""
click here link links page pages site sites home homepage main index back
next previous prev top bottom up download downloads more info information
read contact about news faq help search go goto visit view full text html
pdf ps doc online web www http https email mail welcome start continue
""".split())
