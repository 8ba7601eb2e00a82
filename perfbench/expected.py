"""Frozen outputs of the seed-free benchmark ops.

Recorded from the package at the commit that defined this benchmark.
Verdict and catalog digests are sha256 of canonical JSON (``workloads.digest``
for verdict dicts, ``workloads.catalog_digest`` for the catalog); CLI
digests are sha256 of the exact stdout bytes.
"""

CRISP_KINDS = (
    "subgroupoid", "left", "right", "two_sided", "bi", "generalized_bi",
    "interior", "quasi",
)
FUZZY_KINDS = CRISP_KINDS + ("idempotent",)

# `gammag verify ir5 --theorem all --lattice 1`, in registry order:
# theorem id -> (status, digest of the verdict dict)
VERIFY_ALL_IR5_DEN1 = {
    "sf": ("holds", "a144167276951cc87806c66852691ed714337da10fd8a59b2c4e0ef9d378aabd"),
    "sf_factorizable": ("holds", "b5b2bac3145297d1c425de799fb4445782efc146f8dca617d39d9cf3bb658026"),
    "trm_i": ("holds", "12c533ba94921a9e02c6cd32554d084abf1d3774b8897c241603ebd54fae5ced"),
    "trm_ii": ("capacity_error", "554fe5d966eff6f44310868b22749cd024057ac5a273e938e1a89dd4d1db7af6"),
    "agss_i": ("holds", "a81d8d3b830832da8aa1af52109182f95222ea53ec6d50a4f0200bd37e1505f9"),
    "agss_ii": ("capacity_error", "16060ffeea1f8a751514b017a569d96df6c3eda73c0e6aab2d479ee1f20e16c2"),
    "rl_cap_quasi": ("holds", "357a82761156eed4397ffe967a7c1033cf586c03910c0672599c86b75bab6e72"),
    "qqq": ("holds", "7bff23435536470bd9f04140c64956c8f6dd236def5ebf52d6574b3e75d26b07"),
    "idem_quasi_bi": ("holds", "3a4accad78d7c5f56f25ed866f689c0c1d8c382620acdc32a5d80ceb418f204e"),
    "onesided_quasi": ("holds", "65bba02c6124733f7c88c90b6e09b48391b418d0c0ccaf5398a691379f9a0664"),
    "onesided_genbi": ("holds", "436d28bfefa33f0484b3909b5bff189fbf86e23ed9b437ec5372ad1771e15c85"),
    "idemquasi_prod_bi": ("holds", "8e80b5fa7ef7a4a6fb72049157b94539d00479136ec62b7392dd38854f5eaca2"),
    "prod_onesided": ("holds", "fd09747dfe566fdd5a06fb7aeb7a1c36f543db39e75b21812303937662967efa"),
    "llb": ("holds", "a35d7bb1c4226e9b164948e4a947e770047224dcb903286992c379b2d697b33f"),
    "left_idem": ("holds", "be2bdb4f0e3290309e0c1c803ae99e58ad989f1ac48bf75706332288e0cac410"),
    "cap_eq_prod": ("holds", "10a62fead72c11886d91d5de9407f7fdcb45558d0fc42462f4bdf37611d197cc"),
    "semi1": ("holds", "72984dfce363b765e48d849416f5111cc41e1b1973bd28450925bb543217ee0f"),
    "irr_iff_prime": ("holds", "c9c4624a7935368e8c910c4a5bdde0a8f5cb1ab5bea2e21705a7672bd8341f23"),
    "all_prime_iff_chain": ("holds", "b4c5b0ad5e4e912d53ee46bc0fa23f7264bce13bb84eb9059faa079e5ef64c18"),
    "inte": ("holds", "f2f4520d247f8ffed26c124490ed8ea4487f1a539b9e3651be9e13def580a385"),
    "q2": ("holds", "c64c8eeb51998bdbea04ef30b8171addbe0dd6b88ab77277b3372544e36f0381"),
    "gener": ("holds", "a53505b7d02bf2c39cc8e8b47c74576e1a1416bddc7107578d96ba03141e73a4"),
    "bii": ("holds", "7b01ae173d3d111f66f7d0d1c1bf52262bdd57e20572b2f44ea77f4f2f7e85a1"),
    "bi_fixedpoint": ("holds", "596adcad48c7e2673134b46fb5926495935ec112c05c78aaba4beb976bc498e0"),
    "interior_fixedpoint": ("holds", "8453c79514a7448ef680b14daf0adeea4fc18abf2774bbeb20edc3cba73f2f34"),
    "l145": ("holds", "e034eda47d1c771f7ebc76d3fe97b0afc2b98bcf3257f4feb5d7a1288c6e25fd"),
    "grand_equiv": ("holds", "6825eab5afa46b0a7855b6badbd2bfef1d4bc792363f012117dbec27d2873137"),
}
REGISTRY_ORDER = tuple(VERIFY_ALL_IR5_DEN1)

# criterion-6 model pools: left invertive, and left invertive plus ag_star_star,
# orders 1-3 with 1-2 labels
LI_POOL = 219
SS_POOL = 105

# left-invertive models of order 3 with three labels
CATALOG_MODELS = 2327
CATALOG_DIGEST = "2989de55efb361ef6b448afe255dd21b8970b47b8211c7974791c7b10d0cbb23"

# quick corpus commands: argv -> (exit code, stdout digest)
CLASSIFY_CLI = {
    "check ag9": (0, "d09d7e9036d8d1cd5f0c31da33f03787225738ce204039cf7fcd0293eabe8aab"),
    "witness ag9": (0, "ca29a63a9fcdd7e2eada5ae6d4cca20ef00a2aa90f6d24ea6bb474d7bbd417c6"),
    "ideals ag9 --kind subgroupoid": (0, "78194ea03f524bad268bb1af07a4e590b25f7799f82d6c4eedfe22130db89860"),
    "ideals ag9 --kind left": (0, "7bfd46e457f9b3948d128893786672740647d517c0fee855684a1cf16df2bc9f"),
    "ideals ag9 --kind right": (0, "1e2da114d663cc5f4c76204116f750a67f4d22ec225ba07196f4528d26c53b88"),
    "ideals ag9 --kind two_sided": (0, "5dc04a7cfae89dc3fdf13d4f8b22ceb0d59d03d41eeaaa75d9f539bd0a1b056a"),
    "ideals ag9 --kind bi": (0, "33b052997fc812d1e50c646583c628b88351afd7cdb728a11825eea87bee4d62"),
    "ideals ag9 --kind generalized_bi": (0, "544bf9ab186166809f27cc9c7677f8fcebbc72413ac4778d531e6f2196280ea6"),
    "ideals ag9 --kind interior": (0, "60f69b0c7f25c973dfeb648e95e8d49397aab9b167599421c89fa13e7a0da9f8"),
    "ideals ag9 --kind quasi": (0, "36c01238cbc93f26196ebc8a2b00648f6b982b1e8f6b5a2ccdf2fdf9ec617a4d"),
    "check ir5": (0, "19bbd53e49ff83d52cb11c9b943a51bf0086b39c73dfebf939d514d296361ff6"),
    "witness ir5": (0, "c22f83412809c4046dd1a6c9857cb167ebad2301f6c42dce26cfa22c8bda7289"),
    "ideals ir5 --kind subgroupoid": (0, "32892f330f1d093adb461d0fc245d7962e4078b9619d991c62bc6b32fd4d4472"),
    "ideals ir5 --kind left": (0, "8254f78f5a45b6d339c1aa87b5fcb4c8f5ac7f0ff53155e1e3744cb835dd4160"),
    "ideals ir5 --kind right": (0, "2b2ec6f81ea4d386b738cf2c12cb45bbe4c551ebb169dc8ff6c0003369c5cd7c"),
    "ideals ir5 --kind two_sided": (0, "0e5450dab6dae65476919c32b4d0a56586a22eef5e1b735d75a511500192da36"),
    "ideals ir5 --kind bi": (0, "65329eca397a8e8845e877dc9ae0c3851b05c2be41703a9ebea0cbed4ab9a143"),
    "ideals ir5 --kind generalized_bi": (0, "2e9f8a45204ce12c8c10348465502c3967f04979a8adc8c9149a702c9a5c681f"),
    "ideals ir5 --kind interior": (0, "bba4644af6e037c0a427c54c86fb4ea3875f403f89862d6541802affece14144"),
    "ideals ir5 --kind quasi": (0, "00b3e35be16d010e35e37b55bbd220eb29a175254892bfd40129b18dfd712e94"),
}

# exhaustive verify on ir5 at den 3: theorem id -> (status, verdict digest)
CLASSIFY_VERIFY_IR5_DEN3 = {
    "llb": ("holds", "1cc2dff7ce0209628fd9874235d4479dca4dd13d8b017edca53dbfc7973100e0"),
    "inte": ("holds", "a8bb97381675050c2386fb8b6383dbf32d1eb322ac87f1594bbe8f0108e69c8e"),
    "q2": ("holds", "da74b02cb62e814f99336d69b1aa9090615ecfed489351868e7bc93592f9b4d5"),
    "gener": ("holds", "26454d9c6669a55d01efa5ed9fb3fa1a42bde73cae03799432b6dd411c4db652"),
    "bii": ("holds", "4d0dfa5948f4c206678fccf967e09ddd9b00118561b94bc09a8558db45f5e435"),
    "grand_equiv": ("holds", "f2c8d803dd3ca0ad0122a77dbe6fa2b36f188257bbd86fb2d2e0c559dbf9b36d"),
}

# argv -> (exit code, stdout)
ENUMERATE_CLI = {
    "enumerate --order 4 --gamma 2 --count": (0, '117686\n'),
    "enumerate --order 4 --count": (0, '331\n'),
    "enumerate --order 4 --iso elements_and_gamma --count": (0, '331\n'),
}

# Order-5 one-label search under a fixed node budget. It stops after
# emitting ORDER5_EMITTED models; the digest covers their tables in emission
# order. Finishing the search must give the order-5 count of Distler, Shah
# and Sorge, "Enumeration of AG-groupoids" (CICM 2011).
ORDER5_BUDGET = 100000
ORDER5_EMITTED = 24167
ORDER5_PREFIX_DIGEST = "e8d9147ebbc2ad042f2330007e0e34aeb686c4aec805db8b02e1b3d8f396fd66"
ORDER5_MODELS = 31913
