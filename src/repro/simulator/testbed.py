"""The Table II testbed: device profiles and SUT construction.

Nine real-world devices make up the paper's system under test: seven
controllers (D1-D7) plus a door lock (D8) and a smart switch (D9) that make
the smart home realistic.  :func:`build_sut` assembles one controller with
its slaves, host program, radio medium and attacker dongle — the unit every
experiment runs against.  Home IDs and listed-class counts reproduce
Table IV exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..errors import SimulatorError
from ..radio.clock import SimClock
from ..radio.medium import RadioMedium
from ..radio.transceiver import Transceiver
from ..zwave.constants import Region
from ..zwave.registry import SpecRegistry, load_full_registry, load_public_registry
from .controller import VirtualController
from .host import HostKind, HostProgram
from .memory import NodeRecord
from .slave import VirtualBinarySwitch, VirtualDoorLock
from .vulnerabilities import DEVICE_MAC_QUIRKS, MAC_QUIRK_CATALOG, ZERO_DAYS

#: The 17-class listing advertised by D1/D2/D4/D6 (Table IV) — note it
#: includes the security classes but NOT the proprietary 0x01/0x02.
LISTED_17: Tuple[int, ...] = (
    0x20, 0x22, 0x25, 0x26, 0x59, 0x5A, 0x5E, 0x6C, 0x70, 0x72, 0x73,
    0x7A, 0x85, 0x86, 0x8E, 0x98, 0x9F,
)

#: The 15-class listing advertised by D3/D5/D7 (Table IV).
LISTED_15: Tuple[int, ...] = tuple(c for c in LISTED_17 if c not in (0x22, 0x8E))

#: Bug #06 and #13 live in the Z-Wave PC Controller program, so only the
#: USB-stick controllers (driven by that program) expose them; the Samsung
#: hubs expose the smartphone-app bug #05 instead (see DESIGN.md — bug #05's
#: "controlling application DoS" also manifests against the PC program, so
#: D1-D5 expose all fifteen, matching Table V).
_ALL_BUGS = tuple(b.bug_id for b in ZERO_DAYS)
_HUB_BUGS = tuple(b for b in _ALL_BUGS if b not in (6, 13))


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one Table II device."""

    idx: str
    brand: str
    device_type: str
    model: str
    year: int
    encryption: bool
    home_id: int = 0
    listed_cmdcls: Tuple[int, ...] = ()
    host_kind: Optional[HostKind] = None
    zero_day_ids: Tuple[int, ...] = ()
    mac_quirk_ids: Tuple[str, ...] = ()

    @property
    def is_controller(self) -> bool:
        return self.device_type == "Controller"


def _controller(
    idx: str, brand: str, model: str, year: int, home_id: int,
    listed: Tuple[int, ...], host_kind: HostKind, bugs: Tuple[int, ...],
) -> DeviceProfile:
    return DeviceProfile(
        idx=idx, brand=brand, device_type="Controller", model=model, year=year,
        encryption=True, home_id=home_id, listed_cmdcls=listed,
        host_kind=host_kind, zero_day_ids=bugs,
        mac_quirk_ids=DEVICE_MAC_QUIRKS.get(idx, ()),
    )


#: Table II, augmented with the Table IV fingerprints.
PROFILES: Dict[str, DeviceProfile] = {
    "D1": _controller("D1", "ZooZ", "ZST10 (2022)", 2022, 0xE7DE3F3D, LISTED_17, HostKind.PC_CONTROLLER, _ALL_BUGS),
    "D2": _controller("D2", "SiLab", "UZB-7 (2019)", 2019, 0xCD007171, LISTED_17, HostKind.PC_CONTROLLER, _ALL_BUGS),
    "D3": _controller("D3", "Nortek", "HUSBZB-1 (2015)", 2015, 0xCB51722D, LISTED_15, HostKind.PC_CONTROLLER, _ALL_BUGS),
    "D4": _controller("D4", "Aeotec", "ZW090-A (2015)", 2015, 0xC7E9DD54, LISTED_17, HostKind.PC_CONTROLLER, _ALL_BUGS),
    "D5": _controller("D5", "ZWaveMe", "ZMEUUZB1 (2015)", 2015, 0xF4C3754D, LISTED_15, HostKind.PC_CONTROLLER, _ALL_BUGS),
    "D6": _controller("D6", "Samsung", "ET-WV520 (2017)", 2017, 0xCB95A34A, LISTED_17, HostKind.SMARTPHONE_APP, _HUB_BUGS),
    "D7": _controller("D7", "Samsung", "STH-ETH-200 (2015)", 2015, 0xEDC87EE4, LISTED_15, HostKind.SMARTPHONE_APP, _HUB_BUGS),
    "D8": DeviceProfile("D8", "Schlage", "Door Lock", "BE469ZP (2019)", 2019, True),
    "D9": DeviceProfile("D9", "GE Jasco", "Smart Switch", "ZW4201 (2016)", 2016, False),
}

CONTROLLER_IDS: Tuple[str, ...] = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

#: Node ids in a freshly built network (Table IV: controller is 0x01).
LOCK_NODE_ID = 2
SWITCH_NODE_ID = 3


@dataclass
class SystemUnderTest:
    """Everything one experiment needs, wired together."""

    profile: DeviceProfile
    clock: SimClock
    medium: RadioMedium
    controller: VirtualController
    host: HostProgram
    lock: VirtualDoorLock
    switch: VirtualBinarySwitch
    dongle: Transceiver
    rng: random.Random
    registry: SpecRegistry = field(default_factory=load_public_registry)

    def settle(self, seconds: float = 0.05) -> None:
        """Advance past in-flight frames."""
        self.clock.advance(seconds)

    def golden_snapshot(self):
        """NVM state considered healthy (the memory-oracle baseline)."""
        return self.controller.nvm.snapshot()


@lru_cache(maxsize=None)
def supported_cmdcls() -> Tuple[int, ...]:
    """The 45 classes every testbed controller's firmware implements.

    43 controller-relevant spec classes plus the proprietary 0x01/0x02 —
    the ground truth ZCover's discovery phase recovers (Table IV).
    Derived once per process: the registry is a fixed singleton, and a
    campaign item builds about ten SUTs.
    """
    public = load_public_registry()
    return tuple(sorted(public.controller_relevant_ids() + (0x01, 0x02)))


def build_sut(
    device: str = "D1",
    seed: int = 0,
    attacker_distance_m: float = 30.0,
    traffic: bool = True,
) -> SystemUnderTest:
    """Assemble one controller SUT with its network and attacker dongle.

    *attacker_distance_m* positions the dongle within the paper's 10-70 m
    envelope.  With *traffic* enabled the controller polls its slaves and
    the slaves report unsolicited status, giving the passive scanner the
    packet exchanges it needs.
    """
    profile = PROFILES.get(device)
    if profile is None or not profile.is_controller:
        raise SimulatorError(f"{device!r} is not a controller in the Table II testbed")
    rng = random.Random(seed)
    clock = SimClock()
    medium = RadioMedium(clock, random.Random(rng.randrange(2**31)))
    network_key = bytes(rng.randrange(256) for _ in range(16))
    host = HostProgram(profile.host_kind or HostKind.PC_CONTROLLER)
    quirks = tuple(MAC_QUIRK_CATALOG[q] for q in profile.mac_quirk_ids)
    controller = VirtualController(
        name=profile.idx,
        home_id=profile.home_id,
        clock=clock,
        medium=medium,
        listed_cmdcls=profile.listed_cmdcls,
        supported_cmdcls=supported_cmdcls(),
        position=(0.0, 0.0),
        zero_day_ids=profile.zero_day_ids,
        mac_quirks=quirks,
        host=host,
        registry=load_full_registry(),
        network_key=network_key,
        rng=random.Random(rng.randrange(2**31)),
    )
    lock = VirtualDoorLock(
        f"{profile.idx}-lock",
        profile.home_id,
        LOCK_NODE_ID,
        clock,
        medium,
        position=(8.0, 3.0),
        network_key=network_key,
        rng=random.Random(rng.randrange(2**31)),
    )
    switch = VirtualBinarySwitch(
        f"{profile.idx}-switch",
        profile.home_id,
        SWITCH_NODE_ID,
        clock,
        medium,
        position=(6.0, -4.0),
        rng=random.Random(rng.randrange(2**31)),
    )
    # Pair the slaves in the controller's NVM — the pristine smart home the
    # memory-tampering attacks will corrupt (Figures 8-11).
    controller.nvm.add(
        NodeRecord(
            node_id=LOCK_NODE_ID,
            basic=0x03,
            generic=0x40,
            specific=0x03,
            secure=True,
            granted_keys=0x87,
            wakeup_interval=3600,
            name="smart door lock",
        )
    )
    controller.nvm.add(
        NodeRecord(
            node_id=SWITCH_NODE_ID,
            basic=0x03,
            generic=0x10,
            specific=0x01,
            name="smart switch",
        )
    )
    if traffic:
        controller.start_polling([LOCK_NODE_ID, SWITCH_NODE_ID], interval=30.0)
        lock.start_reporting(interval=45.0)
        switch.start_reporting(interval=60.0)
    dongle = Transceiver(
        medium, name=f"{profile.idx}-dongle", position=(attacker_distance_m, 0.0)
    )
    dongle.configure(Region.US, 100.0)
    return SystemUnderTest(
        profile=profile,
        clock=clock,
        medium=medium,
        controller=controller,
        host=host,
        lock=lock,
        switch=switch,
        dongle=dongle,
        rng=rng,
    )
