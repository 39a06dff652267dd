"""The planner's random stream: numpy's PCG64 seeded through numpy's
SeedSequence, and numpy's ziggurat standard normal, in pure Python. PCG64
is O'Neill's 128-bit LCG with the XSL RR output ("PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014).

pcg64_raw(seed) returns what numpy's PCG64(seed).random_raw returns, word
for word, and standard_normal(raw) what Generator.standard_normal returns on
the same words, bit for bit; tests hold both to the installed numpy. numpy's
NEP 19 keeps a bit generator's stream fixed across releases but lets
Generator's distributions change, so the stream the planner's artifacts rest
on is held here. Both are closures over local state: a draw is one call, with
no attribute or global lookup.
"""

from __future__ import annotations

import binascii
import math
import operator
import struct
from typing import Callable

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (O'Neill's default, which numpy uses)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64) for an integer seed
    >= 0: the seed's 32-bit words, low first, hashed into a pool of four
    32-bit words, each then hashed once more into two halves of the output,
    low half first."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # seeds of five 32-bit words and more mix their remaining words in
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def pcg64_raw(seed: int) -> Callable[[], int]:
    """A raw() returning the 64-bit words of numpy's PCG64(seed), in order,
    for an integer seed >= 0 (ValueError otherwise). The generator seeds
    from its SeedSequence's four words (state, then increment, high word
    first) as pcg64_set_seed does, and each word steps the 128-bit LCG and
    outputs its XSL RR permutation."""
    w = _seed_sequence_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    mult, mask128, mask64 = _PCG_MULT, _MASK128, _MASK64

    def raw() -> int:
        nonlocal state
        state = (state * mult + inc) & mask128
        word = ((state >> 64) ^ state) & mask64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & mask64

    return raw


# numpy's ziggurat_nor_r and ziggurat_nor_inv_r: the base strip's edge r
# and 1 / r, as its C literals round
_R = 3.654152885361009
_INV_R = 0.2736612373297583


def standard_normal(raw: Callable[[], int]) -> Callable[[], float]:
    """A normal() returning what Generator.standard_normal returns on a
    generator whose raw words raw() yields: Marsaglia and Tsang's ziggurat
    as numpy's random_standard_normal runs it. One word gives a strip (its
    low 8 bits), a sign (the next bit) and a 52-bit abscissa; inside the
    strip's rectangle (about 99% of draws) that is the normal. Otherwise a
    wedge is accepted against exp(-x^2 / 2) with one more word, and the base
    strip draws from the tail beyond r with two words a try; a rejected draw
    starts again. A uniform is (word >> 11) * 2^-53, as next_double."""
    wi, fi, ki = _WI, _FI, _KI
    log1p, exp = math.log1p, math.exp
    unit = 1.0 / 9007199254740992.0

    def normal() -> float:
        while True:
            r = raw()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_INV_R * log1p(-((raw() >> 11) * unit))
                    yy = -log1p(-((raw() >> 11) * unit))
                    if yy + yy > xx * xx:
                        return -(_R + xx) if (rabs >> 8) & 1 else _R + xx
            elif ((fi[idx - 1] - fi[idx]) * ((raw() >> 11) * unit) + fi[idx]
                  < exp(-0.5 * x * x)):
                return x

    return normal


# The ziggurat's 768 constants: numpy's fi_double and wi_double (256
# little-endian doubles each) and ki_double (256 little-endian unsigned
# 64-bit integers), in that order. They are Marsaglia and Tsang's tables
# ("The Ziggurat Method for Generating Random Variables", J. Stat. Software
# 5(8), 2000) as numpy (BSD licence) rounds them; recomputing them does not
# give numpy's bits, so they were read from numpy 2.4.6's compiled
# random/_generator module: wi_double is the 256 doubles ending with
# r / 2^52 = 8.113849337656484e-16, fi_double the 256 just before it (from
# 1.0) and ki_double the 256 integers just after it (ki[1] == 0). Those
# 6,144 bytes, base64-encoded; a2b_base64 skips the newlines.
_TABLES = binascii.a2b_base64("""
AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/rLaeoM73sP394
qc5eauw/6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQlevH+teo/4clQ1Yt06j8Pr/X9
qjTqP9gfZe479uk/gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3ExvfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth
6D9uz1YPBSzoP8viIEvt9uc/WGicd5rC5z/VsKA8A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/
KjtRXveW5j8j45IqJ2fmPxgMVZjiN+Y/ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9Vs
ZVq1JuU/Z7Yg6MT65D/ATklPP8/kP3hS3HIhpOQ/ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8Q
PtLjPw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/Fc2TjvKT
4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/EdE/V3Gx4T9QPJtwm4zhP9o5hhIFaOE/
nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4FdmR12keA/NjzwzH1u4D8uP6avvEvgPyqC
i+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ovyylC3z+Vj35xGv/eP1QfvSBuvN4/xcNOaiN63j+Fm1/q
ODjePwk6dket9t0/sVYLMn+13T8z3iZkrXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/uCwdb9I1
3D8XamF8EffbP5FtcdakuNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/
PoRGOZIM2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/YP9kN
qn9PNdg/Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/Id6IrYan1j/iyyUa
wW/WPxXlezc9ONY/yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/tO1PCbybVP5Jtv45q8NQ/opwQV6O6
1D/Uaq2fGYXUP/4kw+/MT9Q/GXo10bwa1D/b0o7Q6OXTP65D8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/
Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/id4XH4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fu
NLvHS9E/IyTPTxMa0T/ECYdZlejQP9pCsohNt9A/NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriM
EIjPP9KY6Wz+J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2S
zD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/fiYZC35ryj89fi0y9xDKP1r+0r/Stsk/
J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/prV6nHxKxz8WR5Z+YPPGP1zy
IT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/BH+OtjfDEPy3O9WwMnMQ/1XUDwulHxD+uMWmL
JfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoHehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/Yy2o5UBj
wT+5bqIdyxLBP7oJUj2zwsA/hb+4S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/
5ZG9uas4vT8KdDtJX568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Io
v50ce7g/1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8tD+GmiYj
7+2zP3A+2eTFX7M/ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSwP5fkMJ6XG7A/NW5sKywm
rz+BUbJH1RauP2Lxrf4uCa0/LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/
1K3yPLLapT9dJxEOXdukP8vumM7y3aM/l/Q96Hzioj+8ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJ
zYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/C/TapZY/ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08n
jaSLP3ikjQ0EQYg/4M8aQpbrhD+SL5UpkqWBPzdo7Phg4Xw/XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWm
VD952RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08
w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb
/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ
rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi
qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8
SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2
2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE
fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo
sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8
2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy
sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae
33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY
tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8
Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU
aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak
Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk
uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8
EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71
Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb
a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q
vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08
Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn
EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB
Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW
wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8
Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM
BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx
De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy
wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8
G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG
CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC
tDvNPGrvJYA98w4AAAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZ
DwAYy/9h7TcPAFwlYZVGTw8AlqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQTccklw8A
CfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5mI+y3DwAO5aHp7LoPAO0L
BJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8AMe56l6LGDwCkliipesgPAIXeS14yyg8AGiMC6czLDwDEOfgS
Tc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy0g8AHsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInW
DwAy6MipbtcPAOgIe1RI2A8AjCytixfZDwDSracH3dkPAIxeEHCZ2g8AIC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8A
nXIYgTvdDwCQLzSI0t0PAGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A8iS85G/gDwBYoiXC5uAPAEy4
KDxZ4Q8AmT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8Af62e6RDkDwA0d9RG
Z+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjVxnV75g8AqhEeZr7m
DwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBTkCjoDwA6FzX7XugPAGQIhNyT6A8A
vM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm
8Zwy6g8ALJUyq1rqDwAadNWmgeoPAPAc3pen6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGu
VusPAPqE4vR26w8AFCDmX5brDwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELs
DwCW8Sn9W+wPAPTubEB17A8AtAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8A
KIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8Ablit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDILKQGlO0PAAS3
hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A04o8gd/tDwCAmZAP7e0PABTUDx767Q8AxEsSrgbuDwAGWtnA
Eu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A9IIp7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLu
DwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvPfu4PALJKSNKE7g8AQ2O2YIruDwBRyMx6j+4PANolfiCU7g8A
6imoUZjuDwBcSBMOnO4PAPRzclWf7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A+tZu16fuDwAK+gTOqO4PADsz
6Eup7g8AEGQpUKnuDwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8AJCA1Lp/uDwAurya8
m+4PAOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8AXr2pw2zu
DwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAFgq1iJO4PAFo8uF4X7g8A
RxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQsBGS57Q8AyTjp3KbtDwCN6Tdyk+0PADao
OBx/7Q8AK8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUI
t+wPAMEwEraY7A8AeKkNCnnsDwD+MQ/1V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9Zrr
DwBChcnhb+sPAJ4frdNC6w8ASy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8A
O1Yv1sXpDwCkR6k7hOkPAChHHUc/6Q8A1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cPAKVq
H3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8AQvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8ANx79v/njDwCcse41
XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8AqnErsILfDwCq/n7Fh94PAP07xgl13Q8AE78p5Ubc
DwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw4kkB1A8ArMe0p6HRDwCeH3YE4s4PALIRXtioyw8A
Ii3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQAxAa2DwB0KCpYQKwPAJhFAR6Xng8A/B2kSPqJDwAsMPD3xWYPAEoc
M0taGg8A
""")
_FI = struct.unpack_from("<256d", _TABLES, 0)
_WI = struct.unpack_from("<256d", _TABLES, 2048)
_KI = struct.unpack_from("<256Q", _TABLES, 4096)
del _TABLES
