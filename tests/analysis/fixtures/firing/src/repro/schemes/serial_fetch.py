def fetch_regions(rounds, pir, header, regions, trace):
    payloads = []
    for region_id in regions:
        payloads.append(rounds.fetch_many("data", header.data_pages_for_regions([region_id])))
    rounds.pad("data", header.data_round_pages)
    while regions:
        rounds.fetch("data", regions.pop())
    return payloads, [pir.retrieve_page("data", page, trace) for page in regions]
