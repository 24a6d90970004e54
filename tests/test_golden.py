"""Byte-identity guard for the command line.

Every germ file in ``germs/`` is run through each subcommand that reads a
germ, in every output format, and the sha256 of ``repr((exit code, stdout))``
is compared with the table below.  ``oracle`` also runs at the smaller
depth and height windows, whose clamps the default flags never reach.
Format rejections (exit 2) and invalid germs (exit 1) are frozen like any
other run.  A refactor that keeps the program's answers keeps every digest.

Regenerate the table, only for an intended change of output, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from treeends.cli import run

GERMS = Path(__file__).resolve().parent.parent / "germs"

COMMANDS = {
    "validate": ["validate"],
    "classify": ["classify"],
    "unfold": ["unfold"],
    "lambda": ["lambda"],
    "power2": ["reduce", "--power", "2"],
    "interval13": ["reduce", "--interval", "1", "3"],
    "oracle": ["oracle"],
    "oracle_depth1": ["oracle", "--depth", "1"],
    "oracle_depth2": ["oracle", "--depth", "2"],
    "oracle_height1": ["oracle", "--height", "1"],
}
FORMATS = ("text", "json", "dot")

GOLDEN = {
    "bad_nullclosure.germ validate text": "d174f9e6cae28809a755b8c55fdc784e08ec0c82199a96541a87eb75c67e006c",
    "bad_nullclosure.germ validate json": "8a1877ea6efa1cfaf309c2ea3613a2f2d3e9d616b60898c260aed9a9c8249ccb",
    "bad_nullclosure.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bad_nullclosure.germ classify text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ classify json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ classify dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ unfold text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ unfold json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ unfold dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ lambda text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ lambda json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ lambda dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ power2 text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ power2 json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ power2 dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ interval13 text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ interval13 json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ interval13 dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth1 text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth1 json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth1 dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth2 text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth2 json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_depth2 dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_height1 text": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_height1 json": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bad_nullclosure.germ oracle_height1 dot": "e02c779593524e3015f230baaa42010cfa2aad3f7b527b25409bc7d0d831066a",
    "bs2.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "bs2.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "bs2.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bs2.germ classify text": "6a1cf9c678580ba390dd18783832c4087ff8761c8c4e31c742e35053c2d8b1aa",
    "bs2.germ classify json": "96c2a2e99f945880a410a678180cc484ba841170696e85216af6ae69e767039b",
    "bs2.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bs2.germ unfold text": "200800a37d5924ec3b99a5e05f577331d2c1df08b5a75b5dfaaa62e822d48913",
    "bs2.germ unfold json": "e82d033fedd4dfc09595c421a9f44d60873ae7106a5d3de9cbf3ccb82734c553",
    "bs2.germ unfold dot": "3f7c7c7372d6275fe6ced08162fcf7905030dfdcb5d7741a15c5d3c1efafaed4",
    "bs2.germ lambda text": "8602e3a5eaaea10b26cf80a095e1460607343f04fc2771ccfb730b81be56e62e",
    "bs2.germ lambda json": "a1e75ec9548c54207cab01a308ede3a0b947d5155f2b9ecd3dfded9de8b8d214",
    "bs2.germ lambda dot": "9251b722c89c6173ee76cbdc3c0860303632bacfb7abad3fc69d68486a9d398d",
    "bs2.germ power2 text": "0aeb5e0fcbca392c8a52a128b31f079811240e04242eeefc3aa039902359198b",
    "bs2.germ power2 json": "84d66fbcc28b10fe65a658fc97a4e50c579d9b70b8167cd17e776495847a956d",
    "bs2.germ power2 dot": "fb9e90ae0367a661b4825640a38038d9c98b8a2fa0984c6f98cad012c539ad4c",
    "bs2.germ interval13 text": "4a0f4ab497f32e4dfd3c01a17d0fe6f8ffb096bfcd63609f5b39b30f63602f45",
    "bs2.germ interval13 json": "9c1b8c8a82e13af7b1073b2a9472e2e95d9f829e89f46277a2f251a6557e7408",
    "bs2.germ interval13 dot": "d1bdabbdb98cf9ed5e0400aa915e94fc0512fd6555119a339bab44c869a7b199",
    "bs2.germ oracle text": "3a70b1d3f45f2776be0f15b07843508d35f538f167c1c1ef089fce2579bfa4ab",
    "bs2.germ oracle json": "534dfac211d71962339296f550887ea23439b7ff26a7479fc9f6b53c54ddc06e",
    "bs2.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bs2.germ oracle_depth1 text": "834c672bf5acb5e7a6360443998bdea4c980580d0d090847e692a283ef105cb0",
    "bs2.germ oracle_depth1 json": "14b3713fc635aae1db6ab16232cc1eeb590dbad2fd1d7cf708cf922ef58ad66b",
    "bs2.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bs2.germ oracle_depth2 text": "9cb47676218de4b32f5fdcc454b1d6f6e8fdae1b2466f26e1b5f47ed02afe8aa",
    "bs2.germ oracle_depth2 json": "dbe1957f392beda282f727423d5fd79eaf653ee03711758008770e1836d9cd7e",
    "bs2.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "bs2.germ oracle_height1 text": "c818907b1fb1756577beb399c197e39b6981a3b383b9dc4aa09543cd63598d6e",
    "bs2.germ oracle_height1 json": "f8189e9afe607d01ef409899ab3d389b408f5a2cd4cb20309042fe980d234b11",
    "bs2.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "mixed.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "mixed.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ classify text": "0787783a392486f3895c8fd1d62c91dcd06f1580ee837d21ee8367451f5ca861",
    "mixed.germ classify json": "040db2d3a83be54c6432f4aabdfc2837875fd03eef500e0559a4a2841f285593",
    "mixed.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ unfold text": "7a1e14addae1825f8f70633554a23ce144afe32c22a1e58934ec25d85150321d",
    "mixed.germ unfold json": "b1288fa65191f72f1b3816993cae899f4c9f3a8639454a1a8d4482892f0895d3",
    "mixed.germ unfold dot": "03423745890b6765fd82d0b3f63bd930f3e0090e2c0c5a9f1f225bddcd60ef4d",
    "mixed.germ lambda text": "3f5e5ba7bdd132c52939f5831b2bb15d10316818f6ce4923776c39fc1b4bf1f4",
    "mixed.germ lambda json": "a97f1b10edb62013a33de46976b28882c1c7f99a21eddbdf44b1a8e902a24ec5",
    "mixed.germ lambda dot": "f658cc01aa666c91eed470c50e7af898ccab0af4166c1ead319c3712f0fe85aa",
    "mixed.germ power2 text": "36d01911f14d5f8153769aacb2ba311f6e8ebefc7a2300d3fb01cc7a8344665d",
    "mixed.germ power2 json": "1ef4c67830ab179abb5bd61be430844759e66630e63e4dc235f6d1037ea69ef6",
    "mixed.germ power2 dot": "af98ddf3b30674e48dc00928940ff45cdff6515e62b80446681f4fc3a645fb91",
    "mixed.germ interval13 text": "00591752d4d4f950d7c6ecacdf411d2430c759dd69f66c301776222d51918586",
    "mixed.germ interval13 json": "b2ca3941d3da139ce52b4934c3fff7f8fb0a50784e60c3461e7f2a2ec16cb257",
    "mixed.germ interval13 dot": "583d15f2e34e07f9650cf171888ca24bb4b9f05e7cbe41ec34dd22047d3df942",
    "mixed.germ oracle text": "f081dd816cbd2f74d4e615582f5b6b19fac5108a3e09e5e7e512033e822228a3",
    "mixed.germ oracle json": "dfd3bd45bc084f8e02b055787115a33af13a79e4e91c92215199c403e6d3c168",
    "mixed.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ oracle_depth1 text": "05e4c15c5448307c314b43414aede93fa7176594543c17c6052b81a53c6d0d6a",
    "mixed.germ oracle_depth1 json": "080150c47c95c06d3604bced8d25a156fa554849bc7bda73aafb022652852712",
    "mixed.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ oracle_depth2 text": "8dfc9d3ad973647a7957af1cf2623016077d8002cce01d16e7dc61b96aedc48b",
    "mixed.germ oracle_depth2 json": "72fae8d4df0f88a43dbb77c821e1f1ccd61513cee7372325da1f330048d49c6c",
    "mixed.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "mixed.germ oracle_height1 text": "e3d99a6781d0cdff74f173b73074d12aac91e540eb21849665e6048983a3de7a",
    "mixed.germ oracle_height1 json": "efa6b4a2882486e5412e5d305b4ecb86407ae5068d1026b35e3e81abb2fa80c5",
    "mixed.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "null_binary.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "null_binary.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ classify text": "057d713e1058660911a10603ecf16348c0a4e2797f54f2a060a6336b48ce6386",
    "null_binary.germ classify json": "f020bf96a26cae00987daac33e69acba5d57e6e61abc1250b6ac7e6d287b2693",
    "null_binary.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ unfold text": "f1c86fd17c00378e239ce834d10914c9ad8a2233d7f419131389b8ed519d219a",
    "null_binary.germ unfold json": "38fd8bdddafdd2af425ca243dca2a2033a405aec3756f51d4cb5821526a75d14",
    "null_binary.germ unfold dot": "b876742b328bc793f25c0c4bd97f9d189cda25a46c1a4cbd24cc764cb0855fb0",
    "null_binary.germ lambda text": "a7b8ce0ae0f6dcf112791b3ca1f783e15619f583ea5c5b809ac2d4011ad02c14",
    "null_binary.germ lambda json": "34c2b02847380bdb1e2982768da5eba78fe3fe7d4e3a4e5e1314f8d8a5c18d4a",
    "null_binary.germ lambda dot": "406c039f8b3fada09722f7b8524f3e8cb2f2b5024587fde8910ffc2acd12c242",
    "null_binary.germ power2 text": "8d889a3057c85dced2585811150c35e99346b1b75b4c40db7870b799f0f49ab8",
    "null_binary.germ power2 json": "e0a0c45411f43f01f8b6efcbffc91e019ba230504f9cfa677152a5da500ce279",
    "null_binary.germ power2 dot": "5f4e416ad5f3fc944bda537ef9f7c86b1ce51794854ca029bd618421a107aa7e",
    "null_binary.germ interval13 text": "f1cd70d8a4cbb981da95805d649ba41f9231b860cae658947773424df2724928",
    "null_binary.germ interval13 json": "7acca1ff65bbb009a97c56d480c785bfc521c0d240e97b97bde933f61f025d1a",
    "null_binary.germ interval13 dot": "4b76485611243762fa6c718a402849c65167b75af68da70ec377bef2c6f7cea5",
    "null_binary.germ oracle text": "3a8c02f4f9791fa444058c344bf603d6e2388bb5c37bfdc4da67771dcf702569",
    "null_binary.germ oracle json": "25c62907e3eda06b60adbad9688a3b23a1cd04aa98bb3b18f3c73c851fb67b88",
    "null_binary.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ oracle_depth1 text": "dd1c65071b8a7b6407444461f910687503192dea680efeed84d4a69ef8723012",
    "null_binary.germ oracle_depth1 json": "74546e561411264491dca1529d6728f7732a54cbe67eccc556d3186bd6046288",
    "null_binary.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ oracle_depth2 text": "e296ba4230b6f9fc95b9dcea98e250368d5726ad3af37473d149fdb7bef11bc7",
    "null_binary.germ oracle_depth2 json": "b25a10cd37dc449c41238d3524f12327f67bcca5cab8076a5359d6325b538a3a",
    "null_binary.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_binary.germ oracle_height1 text": "7cec5a05a2eb8933ddecadd2f6a6039cb533a9efee6b1df69c2b140159e1d575",
    "null_binary.germ oracle_height1 json": "50bdbd33e442bc56bee25d09d7d4f2af8ad14500655e50dccf938e5b05d665e9",
    "null_binary.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "null_ray.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "null_ray.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ classify text": "b6eefb5610881935d1f31a373ff68ec632b90d56aa91294687c1ccb6e46b400c",
    "null_ray.germ classify json": "f478a49a7bdd324680d1b9940667e8646b1870b525a98b022e81bc0998b66d1f",
    "null_ray.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ unfold text": "9a751fe3572c9f878b5b976ed7bcc2c74839b4a392599ca091ccf23abe352547",
    "null_ray.germ unfold json": "12b8c9911f19afd7e16c28302ef1825792935045282d0aa7e4fa2ef9e041bc18",
    "null_ray.germ unfold dot": "8fe68165d2d8771c2142d3c358dc1c3cc9dd636d33a1e692dbfb428a784cb825",
    "null_ray.germ lambda text": "5f5c09ae21983928397e26c376e175b26aa63f3518abc297d5b2e79ce0c3f6e9",
    "null_ray.germ lambda json": "028ef3147e69ae51ea4fdbb471568f35821e1025046144aa8e54913a6b563a93",
    "null_ray.germ lambda dot": "684324de0349ce66cd9075240a6877e458b95e0855fa33e2aff6c3c1d073f7f2",
    "null_ray.germ power2 text": "2d7dcadf87e92c8b6e14c9a2a9b14747937b01ff3ce8a1eaa8716b68446b0eee",
    "null_ray.germ power2 json": "88d7080ef65a79f48282f82f678a29fde85cebc6778e2cd2e93571b0ebd9ac52",
    "null_ray.germ power2 dot": "8fe68165d2d8771c2142d3c358dc1c3cc9dd636d33a1e692dbfb428a784cb825",
    "null_ray.germ interval13 text": "3b65542a9855c4fdbd38fdf63a0cff3b0d8192fc8be9318845fdf010cf96cc7c",
    "null_ray.germ interval13 json": "219864c0bdecaf0af407f444ba3cfcbcda3cd7f9827e3184ea4b5c247b285e2a",
    "null_ray.germ interval13 dot": "966c197ee2195be2a5fcd5f9bb7450c0f3845a7cf6f1d69bbaae8c8c5c882356",
    "null_ray.germ oracle text": "bf95b5769d39fe53913faf7d9819616daf3e78496c4c7c7df6f201fc6fd92f49",
    "null_ray.germ oracle json": "25f8624c409c506888e0e6b3be317fcf6f9671be328338d4d6c0b2823ca096cf",
    "null_ray.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ oracle_depth1 text": "532b862772c664d658f900d426fce4ab7be3921be1c201cdc3237937f34a1611",
    "null_ray.germ oracle_depth1 json": "76a259d389aa77204527e813489b0a12c1aec82790583e0c8c2f19a92e6d8f19",
    "null_ray.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ oracle_depth2 text": "44e30a5b66d752f819c2ee823b8a3982320d080386b7dedb1306f96e60dbdafb",
    "null_ray.germ oracle_depth2 json": "dd9c9691d98934d37f5ed7ef151e41b515aec84fde99ee3cd560a6d6b14cb754",
    "null_ray.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "null_ray.germ oracle_height1 text": "1e0ea45331c2ed60a232c18a42f36a77793b850a466a469564d86f10f566877e",
    "null_ray.germ oracle_height1 json": "3467400c40f24ad5d9d6f818b7152dcb535fe5ee4a43721d00b1bac2513fa17f",
    "null_ray.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "spin.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "spin.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ classify text": "027e98857b7af7bfe5bf9186b2edbd5996288b61d966a6bef24b736366775cff",
    "spin.germ classify json": "afde670aaa87e9c7b96af228727e544992d95efdff52b0389c21cb15f948d215",
    "spin.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ unfold text": "eea44c6ccecbe222c5ac9b144270850eade25d7469cd981fb3f69300b891a927",
    "spin.germ unfold json": "74cdb49878f41a8428ecc4a08d897bf615e02ff53eef51f77ac943e7ebd321eb",
    "spin.germ unfold dot": "37bf43c472819d401346547f0c32753846164eab73503822d945ac042b48b17c",
    "spin.germ lambda text": "d1021ef777b9440e76bd287838446d36a3c3d0f88f44c29d2e3407f08e043c54",
    "spin.germ lambda json": "dda93ade1b1a6a6fb877ac19bc0976c69839f87aa8b99ad6a6c7a8b5c3eec614",
    "spin.germ lambda dot": "2e9458d6248b091c87e132cf5c282c7dc213c6459cf9153df15224e58794699b",
    "spin.germ power2 text": "35b4a5d88ee5e815f799c3b49cbb99b0c44ab3734220efbcf71487b58668a01e",
    "spin.germ power2 json": "b1380b975b87b419a5952840a6fb1996b88d4624e34c1efb9a4ba1f1a6651da2",
    "spin.germ power2 dot": "bbc975eec614bb5b7853bb61a3047f161d039ddbeac6a93bbb371a4a7f144a25",
    "spin.germ interval13 text": "00cf6b319dec70ab777470e6a33b9cda3c3f756c2f048d818b7c070ca45aff04",
    "spin.germ interval13 json": "5b053c334eeb71f2a05295400d1173f4ee6076ea6baebc442d95c7bad3c0f327",
    "spin.germ interval13 dot": "11361a7899b6450cc9f60caa3ab23afc05597b571cb2e5a2f89c82791fe65046",
    "spin.germ oracle text": "772bba5e41ba51c36cb33e54d5c32b9c6587f43456a6c1610aa0b204559bcd8e",
    "spin.germ oracle json": "2cbc1020113428a928751f95f1b31f6c1bc1676ecc52cbf2072c82b9d2361ef9",
    "spin.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ oracle_depth1 text": "d5b69257b2b6a250773cbcceaf0c615d29dc11916936c9f47fcebb6bb4076fcf",
    "spin.germ oracle_depth1 json": "d14f1a05158b757ee4749cc5a995eee0a3d193e349f0bd82312d7d854481dd24",
    "spin.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ oracle_depth2 text": "d270889b2568ab7d58b2f11cdac3456f387d652f2f07a649fb06abc16fc752e8",
    "spin.germ oracle_depth2 json": "714b4ab7dd63cd588e09d999fc898295d2643e9a013f062ceaeebeb366ff1f32",
    "spin.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "spin.germ oracle_height1 text": "474ce3ffe74c2cb2400ac91d7029a08c62d64fb6c95a3d3629336aa6a0bf080a",
    "spin.germ oracle_height1 json": "3dca368221b7f58085887e079a59a208309b36fe1be73a22901593ce30e46619",
    "spin.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "trivial.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "trivial.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ classify text": "6360daf6fcaf62c3641c6fc00c9a45994d923cafed1e651917bdc5a141df33e8",
    "trivial.germ classify json": "1a6964095e8cb6a1f89aa63e69a053c4911d10f54e505f76351fc429fa8c42d7",
    "trivial.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ unfold text": "715233154216c2a757c87f986f4ec1ebc99e0d30d31d847453c2fee7152f38a0",
    "trivial.germ unfold json": "b93e7615c00cee0b775b2d0d139d9a112c52bb8bf49dc3ddcf5940f928c0f0f5",
    "trivial.germ unfold dot": "400ac9efd8502e6514fa0d6cdc2fbc3ef776d33d460d75241014098c2a05c7c7",
    "trivial.germ lambda text": "1c33f55c4dc671b3bbd52e44b244ba5fa43ca2f46f0ce71e805c344f63877393",
    "trivial.germ lambda json": "19697fa461d78957a8862a360211a53a36297e5cb767cbffcb62709f8899ce6c",
    "trivial.germ lambda dot": "b3d1aeded7528a941f7a4f1943f69d0079956b754f580b9bd4366f2200950e92",
    "trivial.germ power2 text": "2a1f98e4585b4d12c1feb0fb37d39e3b233efde3f2439686833f8eb51ecaf7ea",
    "trivial.germ power2 json": "857d15975ece1684a9b4e55e3e1ea72fbd4c3d859bc37d3b05c271b137fc7614",
    "trivial.germ power2 dot": "400ac9efd8502e6514fa0d6cdc2fbc3ef776d33d460d75241014098c2a05c7c7",
    "trivial.germ interval13 text": "0bc29639c8839f49d44a4bc9fdb5910cdcf247c1d9eb3cbbabcd99bd40fd8dbd",
    "trivial.germ interval13 json": "ebfbb5c495d97c11a71854cb74153aaf756aba5f761a8c9d06917a034eab6294",
    "trivial.germ interval13 dot": "cb9ec00bd814231bf9f60f412ea4638dbeb25fb7e4c1c5216315e3af3d3f8340",
    "trivial.germ oracle text": "03d18acfcf20c4af71fe92c767d15d23777fcbd754cc631ff7b4bef0b51b732a",
    "trivial.germ oracle json": "24c7aab018a0e2bb349c471d09771bdbb5f7e8e30772077bf7950755aa799a48",
    "trivial.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ oracle_depth1 text": "29e891831c7f2bfbafecaf0246c0378044da9a6afd0846745201840ed6a93d2d",
    "trivial.germ oracle_depth1 json": "fe658a7b057e4097eb71efb4705c8bff26be4aa54d7ace2babb05687f7ddff9f",
    "trivial.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ oracle_depth2 text": "ca01bcf6ac097afd62d7dc1ba957d5f2a1fa300a4f7f06e1522c82e7fcf3e92c",
    "trivial.germ oracle_depth2 json": "a63b4bddab219d316849a99d79fffbf3ba7ca5d057a681599c55de41f15764d9",
    "trivial.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "trivial.germ oracle_height1 text": "199bf51f7d5abd79d1e6bcb655a808f83e667114e5c2661456f330c79a0c65ee",
    "trivial.germ oracle_height1 json": "17c38cd8d3500ef0037ade8ce8cb4f9bcff1a1775b899d7f8fec111162c4130b",
    "trivial.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ validate text": "d7a96bec14967de84378702023cc9a6b95f3e14f834fc25589ae75c65c16d6fe",
    "two_loops.germ validate json": "6f1a0e6ed0b40cd53192e57a7ed94e468216456b9eb442f9a8d26a5638f060f3",
    "two_loops.germ validate dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ classify text": "2deed4962e27020c9b53ca1d01364e6298123f734efedad0e64b4cca699e2a7f",
    "two_loops.germ classify json": "69401cd371a0980b4844bf240c617001654facddde95b58a8bde385739e2991d",
    "two_loops.germ classify dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ unfold text": "e15d0500447f8116211a6e0fda57e5e15b0056cf8a9261016110c760bf1c828a",
    "two_loops.germ unfold json": "ebf14c1d9ccbf598ca02bf3d24806be84297abd511f27b6b90ce877c5609eaa6",
    "two_loops.germ unfold dot": "2937ea1516dc51bcd7200b3e2a16fc045f65f69f957086e70ef7520f203c7bb0",
    "two_loops.germ lambda text": "7d022fe03d79c6a6b858a3e8c127d17eae3d9d63c606c49dba371ef2ff6bf776",
    "two_loops.germ lambda json": "4e539f14972c3b04a202a1b45c142cc2826707e5176a6322723836aaac155419",
    "two_loops.germ lambda dot": "d7c5771f0d420f2ad80a5bed40fcb522998b9337ccca68b01377cdcb0fd10ff2",
    "two_loops.germ power2 text": "1ebd97d13d1c47ee88a8f4fadf73ed70f8e486cfabd571d24dae4d7a40973555",
    "two_loops.germ power2 json": "e8e9788cd3ac671382ee780ad9e85e34b53150cc2de3d3121b8c06972b741f7e",
    "two_loops.germ power2 dot": "08776c20507eb8edbc99a9f1f3bb0af27de23654b64bb8676924adaf6a7f4e2c",
    "two_loops.germ interval13 text": "e8a1b6f97007a253276aeadc90af004cb621f8bdc3e4144df8331c5ab8f45e7b",
    "two_loops.germ interval13 json": "fc6ced7e6108e6d37b9c3c9aa18a113a98c7668ec51fea3c802042bc11dedbb1",
    "two_loops.germ interval13 dot": "a15dab075f5a82997cb16eb233ba2d3e6583d59c9ef2053cc9fc0ed82ba33fd5",
    "two_loops.germ oracle text": "4a34ae830492074383764498c1dd39ce2de851b2c6efc3f1ceb59a6ded874b57",
    "two_loops.germ oracle json": "9cf6c01f764a719ee189721fc17097ec47fa704fd3db89b25b4f3727fa6a4ebf",
    "two_loops.germ oracle dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ oracle_depth1 text": "b2660fb8cc9adbc2a832166328dd067f4b33a3b603f46fc1be87acd5495ed048",
    "two_loops.germ oracle_depth1 json": "732d3f944c2c32ff6d98944e820e2462a89ab6e065f598cb6ebee6c824394936",
    "two_loops.germ oracle_depth1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ oracle_depth2 text": "198052d499c98fcd5338b985b90f856949da73b9548ee8ae15e44991f7ec70a8",
    "two_loops.germ oracle_depth2 json": "454710608f74742208d61ff0d6fc1c2408d83473e98203583e0536b45a66e23c",
    "two_loops.germ oracle_depth2 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
    "two_loops.germ oracle_height1 text": "4ddf944d3b756efc600cb3d9f180f723bdcdbd6b5799baf31c7c25b4e8d46112",
    "two_loops.germ oracle_height1 json": "2db4f4ddeb49c6c59b09adae9141ed1484d49f7a632adcbc52562f00008eb2cf",
    "two_loops.germ oracle_height1 dot": "4d58e900c538598a49a9d2ac59afbc977aede56c501118b637c8ba93412dfd96",
}


def case_argv(key: str) -> list:
    germ, command, fmt = key.split()
    return COMMANDS[command] + ["--format", fmt, str(GERMS / germ)]


def case_digest(key: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(case_argv(key))
    return hashlib.sha256(repr((code, out.getvalue())).encode()).hexdigest()


def case_keys() -> list:
    return [
        f"{path.name} {command} {fmt}"
        for path in sorted(GERMS.glob("*.germ"))
        for command in COMMANDS
        for fmt in FORMATS
    ]


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_keys())


@pytest.mark.parametrize("key", case_keys())
def test_cli_output_is_frozen(key):
    assert case_digest(key) == GOLDEN.get(key)


if __name__ == "__main__":
    for key in case_keys():
        print(f'    "{key}": "{case_digest(key)}",')
