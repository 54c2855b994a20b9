"""Wire protocol of the modelled pCore Bridge.

A service request is encoded into a single u32 mailbox word::

    bits 28-31  service opcode (1..6)
    bits 18-27  sequence id (mod 1024)
    bits 10-17  target tid + 1 (0 = no target)
    bits  0-9   priority + 1 (0 = no priority)

Program names don't fit in a word; like real descriptor-passing
middleware, the program name (and the issuer/sequence metadata) rides in
a :class:`CommandFrame` written to a shared-memory slot, and the word
carries enough to find it.  The codec is exercised by property tests:
``decode(encode(x)) == x`` for every representable request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BridgeError
from repro.pcore.services import (
    ServiceCode,
    ServiceRequest,
    ServiceResult,
    ServiceStatus,
)

_OPCODES: dict[ServiceCode, int] = {
    ServiceCode.TC: 1,
    ServiceCode.TD: 2,
    ServiceCode.TS: 3,
    ServiceCode.TR: 4,
    ServiceCode.TCH: 5,
    ServiceCode.TY: 6,
}
_CODES = {value: key for key, value in _OPCODES.items()}

_STATUS_CODES: dict[ServiceStatus, int] = {
    status: index for index, status in enumerate(ServiceStatus)
}
_STATUS_BY_CODE = {value: key for key, value in _STATUS_CODES.items()}

#: Field widths of the request word.
REQUEST_SEQ_BITS = 10
MAX_REQUEST_SEQ = 1 << REQUEST_SEQ_BITS
MAX_TID = (1 << 8) - 2
MAX_PRIORITY = (1 << 10) - 2

#: Field width of the reply word's sequence id.
MAX_SEQ = 1 << 12


@dataclass(slots=True)
class CommandFrame:
    """Out-of-band request metadata carried via shared memory.

    A slotted value, compared by value and not hashable; nothing
    mutates one after construction.
    """

    sequence: int
    program: str | None
    issuer: int | None


def encode_request(request: ServiceRequest, sequence: int) -> tuple[int, CommandFrame]:
    """Encode a request into (mailbox word, descriptor frame)."""
    if request.target is not None and not 0 <= request.target <= MAX_TID:
        raise BridgeError(f"target {request.target} not encodable")
    if request.priority is not None and not 0 <= request.priority <= MAX_PRIORITY:
        raise BridgeError(f"priority {request.priority} not encodable")
    if sequence < 0:
        raise BridgeError(f"negative sequence {sequence}")
    word = (
        (_OPCODES[request.service] << 28)
        | ((sequence % MAX_REQUEST_SEQ) << 18)
        | (((request.target + 1) if request.target is not None else 0) << 10)
        | ((request.priority + 1) if request.priority is not None else 0)
    )
    return word, CommandFrame(
        sequence=sequence, program=request.program, issuer=request.issuer
    )


def decode_request(word: int, frame: CommandFrame) -> ServiceRequest:
    """Inverse of :func:`encode_request`."""
    opcode = (word >> 28) & 0xF
    if opcode not in _CODES:
        raise BridgeError(f"unknown service opcode {opcode}")
    seq_low = (word >> 18) & (MAX_REQUEST_SEQ - 1)
    if frame.sequence % MAX_REQUEST_SEQ != seq_low:
        raise BridgeError(
            f"frame sequence {frame.sequence} does not match word "
            f"sequence {seq_low}"
        )
    target_raw = (word >> 10) & 0xFF
    priority_raw = word & 0x3FF
    return ServiceRequest(
        service=_CODES[opcode],
        target=(target_raw - 1) if target_raw else None,
        priority=(priority_raw - 1) if priority_raw else None,
        program=frame.program,
        issuer=frame.issuer,
        sequence=frame.sequence,
    )


def encode_result(result: ServiceResult, sequence: int) -> int:
    """Encode a reply into a u32 word::

        bits 24-31  status code
        bits 12-23  sequence id (mod 4096)
        bits  0-11  value + 1 (0 = no value), truncated
    """
    status_code = _STATUS_CODES[result.status]
    value = result.value
    if value is not None and not 0 <= value < (1 << 12) - 1:
        value = (1 << 12) - 2  # clamp out-of-range tids; detail in payload
    return (
        (status_code << 24)
        | ((sequence % MAX_SEQ) << 12)
        | ((value + 1) if value is not None else 0)
    )


def decode_result(word: int) -> tuple[ServiceStatus, int, int | None]:
    """Decode a reply word into (status, sequence mod 4096, value)."""
    status_code = (word >> 24) & 0xFF
    if status_code not in _STATUS_BY_CODE:
        raise BridgeError(f"unknown status code {status_code}")
    sequence = (word >> 12) & 0xFFF
    value_raw = word & 0xFFF
    return (
        _STATUS_BY_CODE[status_code],
        sequence,
        (value_raw - 1) if value_raw else None,
    )
