"""Expert Web search (paper section 5.3, Figures 4 and 5).

Hunts for "public domain open source implementations of the ARIES
recovery algorithm" on a synthetic Web where a plain keyword engine
drowns in open-source portal noise.  The workflow mirrors the paper:

1. keyword query against an external (unfocused) engine;
2. simulated human inspection picks up to 7 reasonable seeds (Figure 4);
3. a short focused crawl from those seeds;
4. local keyword postprocessing whose top 10 surfaces the needle
   project pages (Figure 5);
5. one round of relevance feedback to sharpen the result further.

Run with::

    python examples/expert_search.py
"""

from __future__ import annotations

from repro.experiments.expert import run_expert_experiment


def main() -> None:
    result = run_expert_experiment(crawl_fetch_budget=700)

    print(result.figure4.render())
    print()
    row = result.crawl_table1
    print(
        f"focused crawl: visited={row['visited_urls']} "
        f"stored={row['stored_pages']} "
        f"accepted={row['positively_classified']} "
        f"depth={row['max_crawling_depth']}"
    )
    print()
    print(result.figure5.render())
    print()
    needles_in_top10 = result.figure5.column("Needle?").count("yes")
    print(
        f"needle pages crawled: {result.needles_crawled}; "
        f"in the focused top 10: {needles_in_top10}; "
        f"in the unfocused baseline top 10: "
        f"{result.unfocused_needles_in_top10}"
    )
    if needles_in_top10 > result.unfocused_needles_in_top10:
        print(
            "=> the focused crawl surfaced implementations a plain "
            "keyword search could not (the paper's headline result)."
        )


if __name__ == "__main__":
    main()
