"""Outputs of the seed program at the reference seeds (sampling 2024, Lipschitz 7,
validation 99), recorded once with the program as first benchmarked.

``slack`` and ``lipschitz`` gate correctness: a slack may not move by more than
``SLACK_RTOL`` relative to its stored value, and ``lipschitz.overall`` may not
fall below its stored value, because the estimate may only err on the safe side.
``verdict`` and ``condition`` are printed as deltas and never fail an operation,
since a sounder Lipschitz constant may legitimately move them.
"""

SLACK_RTOL = 1e-9

# reproduce settings, keyed by scale then by REFERENCE_RESULTS key
REPRODUCE = {
    1.0: {
        "sd-det-trad": {"verdict": "pass", "slack": -0.9404120077501031,
                        "lipschitz": 10499.980555674278, "condition": -0.8879118663332208},
        "sd-det-phys": {"verdict": "pass", "slack": -1.1766466968887443,
                        "lipschitz": 10852.884268389784, "condition": -0.037088668896066324},
        "sd-prob-trad": {"verdict": "pass", "slack": -0.9403304272654115,
                         "lipschitz": 10896.52024723386, "condition": -0.20991162427207732},
        "sd-prob-phys": {"verdict": "fail", "slack": -1.168387192186677,
                         "lipschitz": 11029.681892256132, "condition": 0.30633778050933724},
        "lg-det-trad": {"verdict": "pass", "slack": -0.678256773743497,
                        "lipschitz": 13754.151358852654, "condition": -0.6094852528208015},
        "lg-det-phys": {"verdict": "fail", "slack": -0.9785364148654395,
                        "lipschitz": 14333.481387892702, "condition": 0.5264958534445369},
        "lg-prob-trad": {"verdict": "pass", "slack": -0.6776825311810262,
                         "lipschitz": 13970.620622856126, "condition": -0.2356370296576235},
        "lg-prob-phys": {"verdict": "pass", "slack": -0.9578159121119557,
                         "lipschitz": 14354.297137550075, "condition": -0.05087023668470958},
    },
    0.05: {
        "sd-det-trad": {"verdict": "pass", "slack": -0.9740806663617151,
                        "lipschitz": 7321.378040343056, "condition": -0.24187629829259205},
        "sd-det-phys": {"verdict": "pass", "slack": -1.4675465735819946,
                        "lipschitz": 2515.292144636537, "condition": -0.7128903250775309},
        "sd-prob-trad": {"verdict": "fail", "slack": -0.9420924327259115,
                         "lipschitz": 10678.498045592065, "condition": 13.371656848573693},
        "sd-prob-phys": {"verdict": "fail", "slack": -1.1730852931788118,
                         "lipschitz": 10759.091017920904, "condition": 27.634798571284396},
        "lg-det-trad": {"verdict": "fail", "slack": -0.8938500000640864,
                        "lipschitz": 11039.155515542496, "condition": 0.21031092058373735},
        "lg-det-phys": {"verdict": "fail", "slack": -1.013995287234073,
                        "lipschitz": 5133.285903041929, "condition": 0.5263327788041423},
        "lg-prob-trad": {"verdict": "fail", "slack": -0.6783037210774486,
                         "lipschitz": 13923.66351507873, "condition": 8.131231773834882},
        "lg-prob-phys": {"verdict": "fail", "slack": -0.9679329813483127,
                         "lipschitz": 14309.089388478676, "condition": 17.132485194627034},
    },
}

# `physbc run` flows of the cli-artifacts workload, keyed by flow name
CLI = {
    "supply-demand": {"verdict": "pass", "slack": -1.1766466968887443,
                      "lipschitz": 10852.884268389784, "condition": -0.037088668896066324},
    "logistic-growth-prob": {"verdict": "pass", "slack": -0.9578159121119557,
                             "lipschitz": 14354.297137550075,
                             "condition": -0.05087023668470958},
}
