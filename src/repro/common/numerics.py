"""Exact floating-point rules shared by every accounting and sampling path.

**Stable summation.**  The object path historically summed usage hours
in arrival order with ``+=`` while the columnar engine reduces whole
column arrays at once.  Naive float addition is not associative, so the
two paths could disagree on the last few ulps of a total — enough to
break byte-level artifact equality — purely through reassociation.  Both
paths therefore funnel every hours/Gb-hours total through
:func:`stable_sum`.

``stable_sum`` is :func:`math.fsum` — Shewchuk's exactly-rounded
summation.  It tracks the running sum as a sequence of non-overlapping
partials, so the result is the *mathematically exact* sum rounded once
to the nearest float.  That is strictly stronger than pairwise or Kahan
compensation: the result is a function of the input *multiset only*,
invariant to permutation, chunking, and any reassociation, which is the
property the differential harness (``tests/columnar``) needs —
object-path arrival order and columnar chunk order land on the identical
bit pattern, even for adversarial magnitude spreads (see
``tests/common/test_numerics.py``).

**The standard normal.**  :func:`ndtri` and :func:`ndtr` are Moshier's
Cephes routines, the ones ``scipy.special`` evaluates, ported so that the
cohort draws load no scipy.  Every cohort digest rests on them, so they
equal scipy bit for bit over the whole domain, which fixes how they are
written: the published coefficient tables; Cephes' ``polevl``/``p1evl``
Horner order, one multiply then one add per step, never fused or
reassociated; and every ``log``/``exp`` through the C library
(:func:`math.log`, :func:`math.exp`), one element at a time.  numpy's
``np.log``/``np.exp`` may dispatch to SIMD kernels that differ from libm
in the last ulp on some CPUs, and ``statistics.NormalDist`` or
``math.erfc`` are different approximations.  Only the arithmetic that is
IEEE-exact (``+ - * /``, ``sqrt``) runs vectorized.  scipy remains the
reference in ``tests/common/test_numerics.py``.

**numpy's samplers on raw words.**  The cohort planner replays numpy's
``Generator`` draws from raw PCG64 words, many streams at once.  The same
rules apply: :func:`word_doubles` is numpy's ``next_double``,
:func:`ziggurat_normals` the standard normal's one-word fast path over
the embedded ``ZIGGURAT_WI``/``ZIGGURAT_KI`` tables,
:func:`standard_normals` the whole sampler, rejection steps included
(``ZIGGURAT_FI``, ``ZIGGURAT_R``), and :func:`libm_exp` and
:func:`libm_log1p` the ``exp`` and ``log1p`` numpy's C samplers call,
one element at a time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, TypeVar

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

_Real = TypeVar("_Real", float, np.ndarray)


def stable_sum(values: Iterable[float]) -> float:
    """Exactly-rounded float sum, invariant to ordering and chunking.

    Accepts any iterable of floats (including numpy float64 scalars and
    chained per-chunk streams).  Empty input sums to ``0.0``.
    """
    return math.fsum(values)


def stable_dot(quantities: Iterable[float], hours: Iterable[float]) -> float:
    """Exactly-rounded sum of elementwise products.

    The billing integral ``sum(quantity * hours)``: each product is a
    single correctly-rounded float multiply (identical on both paths),
    then the products are summed exactly — so conservation checks between
    per-record and columnar totals are bit-for-bit equalities, not
    tolerances.
    """
    return math.fsum(q * h for q, h in zip(quantities, hours))


# Cephes ndtri.c: |y - 0.5| <= 3/8, then z = sqrt(-2 log y) in [2, 8) and [8, 64).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# Cephes ndtr.c: erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf for |x| <= 1 (T/U).
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 0.70710678118654752440  # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996732E2  # log(DBL_MAX)

# numpy's standard-normal ziggurat (``random_standard_normal``, 256 strips),
# recovered by probing the installed numpy.  One raw 64-bit word ``w`` picks
# the strip ``w & 0xff``, the sign ``w >> 8 & 1`` and the 52-bit magnitude
# ``rabs = w >> 9``; the draw is ``±rabs * ZIGGURAT_WI[strip]``, and it is
# final, one word spent, when ``rabs < ZIGGURAT_KI[strip]``.  Strip 1's
# ``KI`` is 0, so it never is.  ``tests/columnar/test_draw_replay.py``
# re-derives both tables from the numpy it runs against.
ZIGGURAT_KI = (
    0x0EF33D8025EF6A, 0x00000000000000, 0x0C08BE98FBC6A8, 0x0DA354FABD8142,
    0x0E51F67EC1EEEA, 0x0EB255E9D3F77E, 0x0EEF4B817ECAB9, 0x0F19470AFA44AA,
    0x0F37ED61FFCB18, 0x0F4F469561255C, 0x0F61A5E41BA396, 0x0F707A755396A4,
    0x0F7CB2EC28449A, 0x0F86F10C6357D3, 0x0F8FA6578325DE, 0x0F9724C74DD0DA,
    0x0F9DA907DBF509, 0x0FA360F581FA74, 0x0FA86FDE5B4BF8, 0x0FACF160D354DC,
    0x0FB0FB6718B90F, 0x0FB49F8D5374C6, 0x0FB7EC2366FE77, 0x0FBAECE9A1E50E,
    0x0FBDAB9D040BED, 0x0FC03060FF6C57, 0x0FC2821037A248, 0x0FC4A67AE25BD1,
    0x0FC6A2977AEE31, 0x0FC87AA92896A4, 0x0FCA325E4BDE85, 0x0FCBCCE902231A,
    0x0FCD4D12F839C4, 0x0FCEB54D8FEC99, 0x0FD007BF1DC930, 0x0FD1464DD6C4E6,
    0x0FD272A8E2F450, 0x0FD38E4FF0C91E, 0x0FD49A9990B478, 0x0FD598B8920F53,
    0x0FD689C08E99EC, 0x0FD76EA9C8E832, 0x0FD848547B08E8, 0x0FD9178BAD2C8C,
    0x0FD9DD07A7ADD2, 0x0FDA9970105E8C, 0x0FDB4D5DC02E20, 0x0FDBF95C5BFCD0,
    0x0FDC9DEBB99A7D, 0x0FDD3B8118729D, 0x0FDDD288342F90, 0x0FDE6364369F64,
    0x0FDEEE708D514E, 0x0FDF7401A6B42E, 0x0FDFF46599ED40, 0x0FE06FE4BC24F2,
    0x0FE0E6C225A258, 0x0FE1593C28B84C, 0x0FE1C78CBC3F99, 0x0FE231E9DB1CAA,
    0x0FE29885DA1B91, 0x0FE2FB8FB54186, 0x0FE35B33558D4A, 0x0FE3B799D0002A,
    0x0FE410E99EAD7F, 0x0FE46746D47734, 0x0FE4BAD34C095C, 0x0FE50BAED29524,
    0x0FE559F74EBC78, 0x0FE5A5C8E41212, 0x0FE5EF3E138689, 0x0FE6366FD91078,
    0x0FE67B75C6D578, 0x0FE6BE661E11AA, 0x0FE6FF55E5F4F2, 0x0FE73E5900A702,
    0x0FE77B823E9E39, 0x0FE7B6E37070A2, 0x0FE7F08D774243, 0x0FE8289053F08C,
    0x0FE85EFB35173A, 0x0FE893DC840864, 0x0FE8C741F0CEBC, 0x0FE8F9387D4EF6,
    0x0FE929CC879B1D, 0x0FE95909D388EA, 0x0FE986FB939AA2, 0x0FE9B3AC714866,
    0x0FE9DF2694B6D5, 0x0FEA0973ABE67C, 0x0FEA329CF166A4, 0x0FEA5AAB32952C,
    0x0FEA81A6D5741A, 0x0FEAA797DE1CF0, 0x0FEACC85F3D920, 0x0FEAF07865E63C,
    0x0FEB13762FEC13, 0x0FEB3585FE2A4A, 0x0FEB56AE3162B4, 0x0FEB76F4E284FA,
    0x0FEB965FE62014, 0x0FEBB4F4CF9D7C, 0x0FEBD2B8F449D0, 0x0FEBEFB16E2E3E,
    0x0FEC0BE31EBDE8, 0x0FEC2752B15A15, 0x0FEC42049DAFD3, 0x0FEC5BFD29F196,
    0x0FEC75406CEEF4, 0x0FEC8DD2500CB4, 0x0FECA5B6911F12, 0x0FECBCF0C427FE,
    0x0FECD38454FB15, 0x0FECE97488C8B3, 0x0FECFEC47F91B7, 0x0FED1377358528,
    0x0FED278F844903, 0x0FED3B10242F4C, 0x0FED4DFBAD586E, 0x0FED605498C3DD,
    0x0FED721D414FE8, 0x0FED8357E4A982, 0x0FED9406A42CC8, 0x0FEDA42B85B704,
    0x0FEDB3C8746AB4, 0x0FEDC2DF416652, 0x0FEDD171A46E52, 0x0FEDDF813C8AD3,
    0x0FEDED0F909980, 0x0FEDFA1E0FD414, 0x0FEE06AE124BC4, 0x0FEE12C0D95A06,
    0x0FEE1E579006E0, 0x0FEE29734B6524, 0x0FEE34150AE4BC, 0x0FEE3E3DB89B3C,
    0x0FEE47EE2982F4, 0x0FEE51271DB086, 0x0FEE59E9407F41, 0x0FEE623528B42E,
    0x0FEE6A0B5897F1, 0x0FEE716C3E077A, 0x0FEE7858327B82, 0x0FEE7ECF7B06BA,
    0x0FEE84D2484AB2, 0x0FEE8A60B66343, 0x0FEE8F7ACCC851, 0x0FEE94207E25DA,
    0x0FEE9851A829EA, 0x0FEE9C0E13485C, 0x0FEE9F557273F4, 0x0FEEA22762CCAE,
    0x0FEEA4836B42AC, 0x0FEEA668FC2D71, 0x0FEEA7D76ED6FA, 0x0FEEA8CE04FA0A,
    0x0FEEA94BE8333B, 0x0FEEA950296410, 0x0FEEA8D9C0075E, 0x0FEEA7E7897654,
    0x0FEEA678481D24, 0x0FEEA48AA29E83, 0x0FEEA21D22E4DA, 0x0FEE9F2E352024,
    0x0FEE9BBC26AF2E, 0x0FEE97C524F2E4, 0x0FEE93473C0A3A, 0x0FEE8E40557516,
    0x0FEE88AE369C7A, 0x0FEE828E7F3DFD, 0x0FEE7BDEA7B888, 0x0FEE749BFF37FF,
    0x0FEE6CC3A9BD5E, 0x0FEE64529E007E, 0x0FEE5B45A32888, 0x0FEE51994E57B6,
    0x0FEE474A0006CF, 0x0FEE3C53E12C50, 0x0FEE30B2E02AD8, 0x0FEE2462AD8205,
    0x0FEE175EB83C5A, 0x0FEE09A22A1447, 0x0FEDFB27E349CC, 0x0FEDEBEA76216C,
    0x0FEDDBE422047E, 0x0FEDCB0ECE39D3, 0x0FEDB964042CF4, 0x0FEDA6DCE938C9,
    0x0FED937237E98D, 0x0FED7F1C38A836, 0x0FED69D2B9C02B, 0x0FED538D06AE00,
    0x0FED3C41DEA422, 0x0FED23E76A2FD8, 0x0FED0A732FE644, 0x0FECEFDA07FE34,
    0x0FECD4100EB7B8, 0x0FECB708956EB4, 0x0FEC98B61230C1, 0x0FEC790A0DA978,
    0x0FEC57F50F31FE, 0x0FEC356686C962, 0x0FEC114CB4B335, 0x0FEBEB948E6FD0,
    0x0FEBC429A0B692, 0x0FEB9AF5EE0CDC, 0x0FEB6FE1C98542, 0x0FEB42D3AD1F9E,
    0x0FEB13B00B2D4B, 0x0FEAE2591A02E9, 0x0FEAAEAE992257, 0x0FEA788D8EE326,
    0x0FEA3FCFFD73E5, 0x0FEA044C8DD9F6, 0x0FE9C5D62F563B, 0x0FE9843BA947A4,
    0x0FE93F471D4728, 0x0FE8F6BD76C5D6, 0x0FE8AA5DC4E8E6, 0x0FE859E07AB1EA,
    0x0FE804F690A940, 0x0FE7AB488233C0, 0x0FE74C751F6AA5, 0x0FE6E8102AA202,
    0x0FE67DA0B6ABD8, 0x0FE60C9F38307E, 0x0FE5947338F742, 0x0FE51470977280,
    0x0FE48BD436F458, 0x0FE3F9BFFD1E37, 0x0FE35D35EEB19C, 0x0FE2B5122FE4FE,
    0x0FE20003995557, 0x0FE13C82788314, 0x0FE068C4EE67B0, 0x0FDF82B02B71AA,
    0x0FDE87C57EFEAA, 0x0FDD7509C63BFD, 0x0FDC46E529BF13, 0x0FDAF8F82E0282,
    0x0FD985E1B2BA75, 0x0FD7E6EF48CF04, 0x0FD613ADBD650B, 0x0FD40149E2F012,
    0x0FD1A1A7B4C7AC, 0x0FCEE204761F9E, 0x0FCBA8D85E11B2, 0x0FC7D26ECD2D22,
    0x0FC32B2F1E22ED, 0x0FBD6581C0B83A, 0x0FB606C4005434, 0x0FAC40582A2874,
    0x0F9E971E014598, 0x0F89FA48A41DFC, 0x0F66C5F7F0302C, 0x0F1A5A4B331C4A,
)
ZIGGURAT_WI = (
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
)
# Where the one-word path fails, numpy runs a rejection step.  For strips
# above 0 it draws a uniform ``u`` and keeps ``x`` when
# ``(FI[strip - 1] - FI[strip]) * u + FI[strip] < exp(-x * x / 2)``, else it
# starts over from the next word.  For strip 0 it samples the tail beyond
# ``ZIGGURAT_R`` from pairs of uniforms.  ``FI`` is numpy's compiled table,
# not the formula: ``FI[38]`` is one ulp above libm's ``exp`` at that
# strip's edge.  ``tests/columnar/test_draw_replay.py`` holds all three to
# the installed numpy.
ZIGGURAT_FI = (
    1.0, 0.9771017012676716, 0.9598790918001067,
    0.9451989534422996, 0.9320600759592305, 0.919991505039347,
    0.9087264400521309, 0.8980959218983434, 0.8879846607558334,
    0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834,
    0.8267268339462214, 0.8189291916037024, 0.8113078743126563,
    0.8038494831709643, 0.796542330422959, 0.7893761435660246,
    0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568,
    0.742505296340151, 0.7362075981268627, 0.7299952645614762,
    0.7238645334686302, 0.717811932630722, 0.7118342488782484,
    0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735,
    0.6718617198970821, 0.6663913439087501, 0.6609751477766631,
    0.6556114705796973, 0.6502987431108167, 0.6450354808208223,
    0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139,
    0.6094680649257734, 0.6045553906974678, 0.5996817526191253,
    0.5948462437679874, 0.590047996332826, 0.5852861792633715,
    0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766,
    0.5529104904258323, 0.5484139632552658, 0.5439477311900263,
    0.5395112342569521, 0.5351039323804576, 0.5307253044036621,
    0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681,
    0.5008375751261487, 0.4966715690524897, 0.49253026364386854,
    0.48841328470545803, 0.4843202694266833, 0.48025086590904675,
    0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643,
    0.4523987068618485, 0.44850670150720306, 0.4446355653957394,
    0.440785034665804, 0.43695485254798555, 0.43314476911265226,
    0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816,
    0.40701728432947337, 0.4033597392211145, 0.3997203149801972,
    0.39609881851583245, 0.3924950614593156, 0.3889088600187887,
    0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326,
    0.36428246812900406, 0.36083060098964803, 0.3573948201457805,
    0.3539749808000768, 0.3505709414814061, 0.34718256395679364,
    0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014,
    0.3238914823763911, 0.32062378495690536, 0.3173706380299136,
    0.3141319315963372, 0.3109075581262865, 0.30769741250429206,
    0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829,
    0.28561642681550176, 0.2825165930837076, 0.27943014176163794,
    0.2763569892956683, 0.27329705406857707, 0.27025025636587546,
    0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422,
    0.24928421241852852, 0.24633986350126383, 0.2434080154227503,
    0.2404886059405006, 0.2375815744312381, 0.23468686187233,
    0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113,
    0.21476417525117358, 0.21196607630703018, 0.20917983462112508,
    0.2064054063978808, 0.2036427493103349, 0.2008918224946566,
    0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927,
    0.18196065559952251, 0.17930227452284758, 0.17665532144373486,
    0.17401977008183855, 0.17139559563750575, 0.1687827748012113,
    0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286,
    0.15080929068184568, 0.14828664273257455, 0.14577520800599403,
    0.14327497897351346, 0.1407859498144447, 0.13830811644855073,
    0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657,
    0.1212768054847903, 0.11888861344291006, 0.11651166562561087,
    0.11414597782783849, 0.11179156816383809, 0.1094484571468118,
    0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009,
    0.09336531191269101, 0.09111364806637376, 0.08887359206827589,
    0.08664519445055807, 0.08442850957035347, 0.0822235958132029,
    0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676,
    0.0671246538277885, 0.0650165779712429, 0.06292102443775814,
    0.06083810834953988, 0.05876795292093374, 0.0567106901062029,
    0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463,
    0.04268414491647446, 0.04073611065594094, 0.03880270740452615,
    0.036884215688567305, 0.034980941461716125, 0.03309321945857858,
    0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885,
    0.02035109623004451, 0.018605121275724622, 0.016880083152543142,
    0.01517708830793531, 0.013497450601739867, 0.011842757857907879,
    0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593,
    0.001260285930498598,
)
ZIGGURAT_R = 3.6541528853610087963519472518
ZIGGURAT_INV_R = 0.27366123732975827203338247596


def _polevl(x: _Real, coef: tuple[float, ...]) -> _Real:
    """Cephes ``polevl``: Horner from the leading coefficient."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _p1evl(x: _Real, coef: tuple[float, ...]) -> _Real:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Elementwise libm ``log`` (raises ``ValueError`` at or below 0)."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(y0: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Inverse standard normal CDF, elementwise, bit-identical to scipy's.

    ``ndtri(0)`` is ``-inf`` and ``ndtri(1)`` is ``inf``; a value outside
    [0, 1] raises ``ValueError`` (scipy returns NaN).
    """
    y = np.array(y0, dtype=np.float64)
    out = np.empty_like(y)
    out[y == 0.0], out[y == 1.0] = -np.inf, np.inf
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~central & (y != 0.0)  # y == 0 now only where y0 was 0 or 1, set above
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = (z * _polevl(x, _P)) / _p1evl(x, _Q)
    else:
        y = (z * _polevl(x, _R)) / _p1evl(x, _S)
    # Cephes' second underflow exit (y == 0.0) returns the same +0.0
    return 2.0 - y if a < 0 else y


def ndtr(a: float) -> float:
    """Standard normal CDF of one float, bit-identical to scipy's."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# -- numpy's samplers, replayed from raw PCG64 words -----------------------------------

_ZIG_KI = np.array(ZIGGURAT_KI, dtype=np.uint64)
_ZIG_WI = np.array(ZIGGURAT_WI, dtype=np.float64)
_ZIG_FI = np.array(ZIGGURAT_FI, dtype=np.float64)
_RABS_MASK = np.uint64(0x000FFFFFFFFFFFFF)


def word_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's ``next_double`` of each raw word: ``(w >> 11) * 2**-53``."""
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def ziggurat_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal from one raw word each: ``(x, final)``.

    Where ``final`` holds, ``x`` is what ``Generator.standard_normal``
    returns from a stream whose next word is that word, and the draw
    spends only it.  Elsewhere numpy goes on to its rejection step
    (:func:`standard_normals`), which keeps ``x`` if a wedge test accepts it.
    """
    strip = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & _RABS_MASK
    x = rabs.astype(np.float64) * _ZIG_WI[strip]
    np.negative(x, out=x, where=(words & np.uint64(0x100)) != 0)
    return x, rabs < _ZIG_KI[strip]


def libm_exp(x: np.ndarray) -> np.ndarray:
    """Elementwise libm ``exp``, the one numpy's C samplers call."""
    flat = np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size)
    return flat.reshape(x.shape)


def libm_log1p(x: np.ndarray) -> np.ndarray:
    """Elementwise libm ``log1p``, the one numpy's normal tail calls."""
    flat = np.fromiter(map(math.log1p, x.ravel().tolist()), np.float64, x.size)
    return flat.reshape(x.shape)


def standard_normals(
    words: np.ndarray, cursor: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ``random_standard_normal`` on each row of ``words`` from its
    ``cursor``: ``(x, end, wedge, tail)``.

    ``end`` is the cursor after the draw's last word.  ``wedge`` and
    ``tail`` mark the draws whose first word the one-word path rejected,
    in a strip above 0 and in strip 0.  Such a draw is finished as numpy
    finishes it, from the row's next words: the wedge test keeps ``x`` or
    starts over from the word after its uniform; the tail takes pairs of
    uniforms until one accepts.  The loop runs over the rows still
    pending, each at its own word.  A row whose draw needs a word past
    the block gets ``end`` past it, and ``x`` is then meaningless.
    """
    count, block = words.shape
    first = words[np.arange(count), np.minimum(cursor, block - 1)]
    x, final = ziggurat_normals(first)
    end = cursor + 1
    rows = np.flatnonzero(~final & (cursor < block))
    in_tail = (first[rows] & np.uint64(0xFF)) == 0
    wedge = np.zeros(count, dtype=bool)
    tail = np.zeros(count, dtype=bool)
    wedge[rows[~in_tail]], tail[rows[in_tail]] = True, True
    at = cursor[rows]  # each pending row's rejected word
    while rows.size:
        w = words[rows, at]
        strip = (w & np.uint64(0xFF)).astype(np.intp)
        base = strip == 0
        if base.any():
            x[rows[base]], end[rows[base]] = _normal_tail(words, rows[base], at[base] + 1, w[base])
            rows, at, strip = rows[~base], at[~base], strip[~base]
        room = at + 1 < block
        end[rows[~room]] = block + 1
        rows, at, strip = rows[room], at[room], strip[room]
        u = word_doubles(words[rows, at + 1])
        xr, fi = x[rows], _ZIG_FI[strip]
        accept = (_ZIG_FI[strip - 1] - fi) * u + fi < libm_exp(-0.5 * xr * xr)
        end[rows[accept]] = at[accept] + 2
        # a rejected wedge starts a whole new draw at the word after its uniform
        rows, at = rows[~accept], at[~accept] + 2
        room = at < block
        end[rows[~room]] = block + 1
        rows, at = rows[room], at[room]
        x[rows], final = ziggurat_normals(words[rows, at])
        end[rows[final]] = at[final] + 1
        rows, at = rows[~final], at[~final]
    return x, end, wedge, tail


def _normal_tail(
    words: np.ndarray, rows: np.ndarray, at: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's tail beyond ``ZIGGURAT_R`` for strip-0 draws: ``(x, end)``.

    ``first`` is each draw's rejected word, whose bit 17 (bit 8 of its
    magnitude) is the sign, and ``at`` the word after it.  Each try
    reads two uniforms: ``xx = -log1p(-u1) / r`` and ``yy = -log1p(-u2)``,
    accepted when ``yy + yy > xx * xx``, giving ``r + xx``.
    """
    block = words.shape[1]
    x = np.zeros(rows.size)
    end = np.full(rows.size, block + 1)
    pending = np.arange(rows.size)
    at = at.copy()
    while pending.size:
        pending = pending[at[pending] + 1 < block]
        t, source = at[pending], rows[pending]
        xx = -ZIGGURAT_INV_R * libm_log1p(-word_doubles(words[source, t]))
        yy = -libm_log1p(-word_doubles(words[source, t + 1]))
        accept = yy + yy > xx * xx
        x[pending[accept]] = ZIGGURAT_R + xx[accept]
        end[pending[accept]] = t[accept] + 2
        at[pending] += 2
        pending = pending[~accept]
    np.negative(x, out=x, where=(first & np.uint64(1 << 17)) != 0)
    return x, end
