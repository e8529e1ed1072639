"""SHA-256 digests of the CLI's stdout on a fixed set of inputs.

The digests were recorded before twins, quotients, orbits and threshold
recognition moved onto the class skeleton, and those of the five products
that end OTHER_RINGS before the orbit search moved to
individualization-refinement, so a drift in any tie-break (block order,
labels, witness choice, creation sequence) fails here.
Each input's digest covers every command run on it, exit codes included.
"""

import contextlib
import hashlib
import io
import json

from zdgraph.cli import main

ZN_RINGS = ["Z/12", "Z/30", "Z/64", "Z/210", "Z/360", "Z/1001"]
OTHER_RINGS = [
    "GF(8)", "GF(9)", "Z/4[x]/(x^2)", "Z/9[x]/(x^2+x+3)", "FamA(2,3)", "FamA(3,1)",
    "FamB(3)", "FamC(2)", "FamD(3)", "Z/2 x GF(3)", "Z/4 x Z/4", "GF(3) x GF(3)",
    "Z/4 x Z/9", "Z/2 x Z/2 x Z/2", "Z/8 x GF(4)",
    # products whose twin quotients keep non-singleton cells after colour
    # refinement, so the orbit search branches
    "Z/2 x Z/2 x Z/2 x Z/2", "Z/8 x Z/8 x Z/8", "Z/4 x Z/4 x Z/4[x]/(x^2)",
    "Z/3 x Z/4[x]/(x^2) x Z/4[x]/(x^2)", "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)",
]
CODE = "0000111001"


def golden_graph() -> dict:
    """30 vertices in 7 interleaved twin classes (vertex v is in class v % 7):
    class i is a clique for even i, and classes i, j are joined when
    i*j + i + j is 1 mod 3."""
    n = 30
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            i, j = u % 7, v % 7
            if (i == j and i % 2 == 0) or (i != j and (i * j + i + j) % 3 == 1):
                edges.append([u, v])
    return {"n": n, "edges": edges}


def invocations(graph_file: str) -> dict[str, list[list[str]]]:
    """The commands run on each input, keyed by input."""
    out = {}
    for ring in ZN_RINGS + OTHER_RINGS:
        zn = ring in ZN_RINGS
        runs = [["threshold", ring]]
        runs += [["orbits", ring, "--method", m] for m in (("aut", "twin", "gcd") if zn else ("aut", "twin"))]
        runs += [["spectra", ring, "--full"]]
        runs += [["spectra", ring, "--full", "--partition", p] for p in (("gcd", "twin", "aut") if zn else ("twin", "aut"))]
        out[ring] = runs
    out["--code"] = [["threshold", "--code", CODE]] + [
        ["spectra", "--code", CODE, "--full"] + p
        for p in ([], ["--partition", "twin"], ["--partition", "aut"])]
    out["--graph-file"] = [["threshold", "--graph-file", graph_file]] + [
        ["spectra", "--graph-file", graph_file, "--full"] + p
        for p in ([], ["--partition", "twin"], ["--partition", "aut"])]
    return out


def digest(runs: list[list[str]], graph_file: str | None) -> str:
    h = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        shown = ["GRAPH" if a == graph_file else a for a in argv]
        h.update(f"$ zdg {' '.join(shown)}\n[exit {code}]\n{out.getvalue()}".encode())
    return h.hexdigest()


GOLDEN = {
    "Z/12": "7c99287b221f4ca1b649820f4a388f8e56fd123c172814901c555e44bac99bc6",
    "Z/30": "b03c114700a5109ab38e52bec7ee0001062598cc16405c83d2ce4d67878704e1",
    "Z/64": "65939b47db815aa16a11c7c6fd95a5f83916b232945ee0300d1973e019c9ac51",
    "Z/210": "82cbc5916663f7cec11a942f487fd89a68d701712db487dd0a5afba467bd0546",
    "Z/360": "f0a98549562e50ae15ca4e3b6666b1691922782d0e1dce5e84d147e1852a6519",
    "Z/1001": "428375e32a9b6fc9bd6d37cb5f3bc81aade071986bb7ab66ee3deb939ec2ac09",
    "GF(8)": "be0504b187b859f23623083d3d497d4daebc86b273cf8c96c08ac6c1b3ce49f0",
    "GF(9)": "fda8204ecbcde2e50c9f12e2d780b9d819deef37ebaa8fa428617615cab7daaf",
    "Z/4[x]/(x^2)": "48ab1134821e03ad579cb6c5fc42bfff006b291da2f1d7ba37da375da55182a0",
    "Z/9[x]/(x^2+x+3)": "cb96550eb3056fab77c08676a7f4179217fa739fb94ce96d19bfeb1151471372",
    "FamA(2,3)": "b1ef669254cac3b8dc307a0e8f9a37bcf88590f124e6b57e3f647e67e45455c7",
    "FamA(3,1)": "009691ccdaaceaba15bfd5abd070072f6bb7888afc37048e1f5918f1b8f18270",
    "FamB(3)": "4300487c9e8e4e41994049361ef8703cb47d504565816e93e7e0acc1aee9e157",
    "FamC(2)": "1b535043f6a7e59841eda258aaf4559feea1c0bf07591053b24da0a104335a91",
    "FamD(3)": "824a95abb80f6ebfb902f39d3dab9a2272cff3aee1020ab585a4cb74108d515b",
    "Z/2 x GF(3)": "f4fb610e77afb7197efd8d97460195344fe63424a792ae7e7ae0b801df8910db",
    "Z/4 x Z/4": "40857606d931ca95d33179e32758f09ee72fec4d92aad647bc9503f819f0fd72",
    "GF(3) x GF(3)": "3470f24b0abdae58af1a23641ceac926c128a3c9a414f7b93b35447383032c72",
    "Z/4 x Z/9": "8c19e32a050643beb5bee7f609ef7db37a2784d8dd6c2a5ade8f442b96d0242f",
    "Z/2 x Z/2 x Z/2": "571ebb74171af16dfbc483292ba891c181bf206cb6a5d37f00e766eb29b4731b",
    "Z/8 x GF(4)": "1b4fcf6e76153844cf585bf0b52d423fc4310115fa926dd33dbfa8739e2b86bb",
    "Z/2 x Z/2 x Z/2 x Z/2": "f4a02262be74d9868599fce8b692da6c97a524269e8a7c16570b4ae6b67b73c8",
    "Z/8 x Z/8 x Z/8": "106b3efe901c357d18be00aa4ae0f829f06de65a491b74a983a2aaae3a19ce63",
    "Z/4 x Z/4 x Z/4[x]/(x^2)": "ebf6c1c00151978d1d899f69a1c9dab87847ed8b0c9267ac35d07ab6507db687",
    "Z/3 x Z/4[x]/(x^2) x Z/4[x]/(x^2)": "c0dd431fe442a28fc52318949d2a8db8060d8220f020a074e29818411c0b1d56",
    "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)": "cf3462816a5b4c83f74f908bc7bf9a4826010ea0fbe6ec12be9ef6f6c7bdd923",
    "--code": "7c7afacb08947d5c1e2a35a4917350a5d9931e1c45e5c433dadd5c8afb35578f",
    "--graph-file": "59b286d2c33e3a170a3ebb3c7b3355efb413691125b067cc2f1e83b08c74e03c",
}


def test_cli_output_digests(tmp_path):
    graph_file = str(tmp_path / "graph.json")
    with open(graph_file, "w", encoding="utf-8") as f:
        json.dump(golden_graph(), f)
    got = {name: digest(runs, graph_file) for name, runs in invocations(graph_file).items()}
    assert got == GOLDEN


# `zdg graph` and `zdg graph --dot` per ring: the only outputs that carry
# element labels, recorded before the per-family ring classes became one
GRAPH_DIGESTS = {
    "Z/12": "c19138d065ba7371b5b1f1f41def0872532108d17f1a7733b5fb4b7e59c53e24",
    "Z/30": "e0b2e1e41f9ea06b251a8bf7202232aba12c509df7bd32e2652cc862a2940c40",
    "Z/64": "5dc9c95e72ec8d9205df4f9e33ecffba3f338726daadc74e28967ff9a7441b96",
    "Z/210": "adff6aad245a8537909a326176371145d288c8bf90b542d079335e2172927c96",
    "Z/360": "2ace00dd4349f91061f7f4e1aa665832a9553e15c3e2fcf907c917aa0c6e6b0b",
    "Z/1001": "235a666532aa01f391c6714b7f8577aa75d276de188719a8c9dbe21af2b8f715",
    "GF(8)": "f7fb42a1fe5fb685c9d8d904540be6d265bd3a9fea9240596c75edf262c6def7",
    "GF(9)": "b10ccc52cfeb09547080ae13d449c910658ad03a694f6d520c2708b5710b06b3",
    "Z/4[x]/(x^2)": "cb6c1f25405df295c2d87fbf397aad6e5c05ece078044c627cce5c63b87745fd",
    "Z/9[x]/(x^2+x+3)": "37957c33b4fdd567259b4ed1e741dfc2dd1bce08e6390f85ce8932020f130896",
    "FamA(2,3)": "3ab0e9617b003c6949c8fb36c47f171a88b0f636530be4dd1dab0bab42bf5a4c",
    "FamA(3,1)": "7da4a57c9beba5ad5124bbe4f0af220a86f60b0cf64b808fcde8c266a6da2c99",
    "FamB(3)": "9128958f2184ba024fd81d4d6a28f2df3bb77ec07017611deec28c5d4fd22832",
    "FamC(2)": "adf5921bc12cc635a81f6efa9a5d0a93846299baa162392c36386404eae29392",
    "FamD(3)": "11cd510d7b1154eb27da899d382370ba2730e336b72f00d3351c9ecc9fd6a08b",
    "Z/2 x GF(3)": "9a02b7f25de52636c17cc5c3bb82a68172e2e5b4c39e3f503729c9155de7c890",
    "Z/4 x Z/4": "7caa4cd3c46e6afb04af32bfc6dc66ecd9a10624cec646fe4c91f8b1f353d65a",
    "GF(3) x GF(3)": "5eb4382003b4dec09968a986c66b66ad0c4cb40e8affc78ce3ff2ec3729b47bc",
    "Z/4 x Z/9": "940b5ecf04723cc7d863872c54fe51cd30a7be2ce3994a8e36d5c86231d1cbed",
    "Z/2 x Z/2 x Z/2": "2c5b9360ce91634e199f29d54b1eca896090aa89d62991eb69bceed6b70e75fb",
    "Z/8 x GF(4)": "e457d3f44b02a58fc9c617ea34b4e0aa6592c1d57abd36b207337fd718385c67",
    "Z/2 x Z/2 x Z/2 x Z/2": "db3f853043c3ebd3fef66bce5d44600bff4622be20c5cbec99919cce8ee1260d",
    "Z/8 x Z/8 x Z/8": "804d591c92db1c79b0a77e563b73f03c5b2b3b1b0e03e9279b39310de23fa309",
    "Z/4 x Z/4 x Z/4[x]/(x^2)": "579e3974b21d545d05cf9d3cf1acffea88bbfbf8f1b634de4c71d91e7cd538c4",
    "Z/3 x Z/4[x]/(x^2) x Z/4[x]/(x^2)": "673c2deceaa84f47f3e2151a3a98aae8133237f42ec87041f47de63b15654667",
    "Z/2 x Z/4[x]/(x^2) x Z/4[x]/(x^2)": "4bf1b1c379fa8b3301d70c78fd5afb809423f03ecf6e68ba20a9cfe494b12a75",
}


def test_graph_output_digests():
    got = {ring: digest([["graph", ring], ["graph", ring, "--dot"]], None) for ring in ZN_RINGS + OTHER_RINGS}
    assert got == GRAPH_DIGESTS
