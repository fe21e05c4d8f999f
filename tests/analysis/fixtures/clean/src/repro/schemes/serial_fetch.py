def fetch_regions(rounds, header, regions, later_rounds):
    pages = []
    for region_id in regions:
        pages.extend(header.data_pages_for_regions([region_id]))
    fetched = rounds.pad("data", header.data_round_pages, pages=pages)
    for round_pages in later_rounds:
        rounds.begin_round()
        rounds.pad("data", 1, pages=round_pages)
    return fetched, rounds.fetch("lookup", 0)
